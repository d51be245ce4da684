(** Textual OCaml source preparation: {!Loader} takes each file's comments
    from here (effect and allow annotations live in comments).

    [strip src] blanks out comments and string/char literals in [src] while
    preserving the line structure exactly: the result has the same length and
    the same newline positions as the input, so a pattern match on line [n] of
    the stripped text refers to line [n] of the original file.  Comments are
    returned as [(start_line, text)] pairs so allow-annotations survive the
    stripping.

    Handled syntax: nested [(* ... *)] comments, ["..."] strings with escapes
    (including escaped-newline line continuations and CRLF line endings),
    [{id|...|id}] quoted strings whose delimiter ids may contain underscores
    and whose bodies may contain [|}]-lookalike sequences, and char literals
    (['a'], ['\n'], ['\123']) without swallowing type variables or primes in
    identifiers.  String, quoted-string and char literals {e inside}
    comments are scanned the way the compiler's lexer scans them, so a
    ["*)"] or [{|*)|}] in a comment does not terminate it. *)

val strip : string -> string * (int * string) list
(** [strip src] is [(stripped, comments)]; [comments] is in reverse source
    order, each entry carrying the 1-based line on which the comment opened
    and its text (without the delimiters). *)
