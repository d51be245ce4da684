(* Comment capture in Loader: the comments stripped out of each parsed
   source, with the line each opened on, are where allow and effect
   annotations live.  Literals must not open or close a comment, and line
   numbers must survive CRLF endings and string continuations.  One table
   row per lexical case; every source must parse. *)

module Loader = Tact_staticcheck.Loader

let cases =
  [
    ( "comment text and start line",
      "let x = 1\n(* note\n   more *)\nlet y = 2\n",
      [ (2, " note\n   more ") ] );
    ("nested comments", "(* a (* inner *) b *) let z = 1\n", [ (1, " a (* inner *) b ") ]);
    ( "comment opener inside string",
      "let s = \"(*\" (* after *) let live = 1\n",
      [ (1, " after ") ] );
    ("escaped quotes", "let s = \"a\\\"(*\\\"b\" (* c *)\n", [ (1, " c ") ]);
    ( "quoted strings {id|..|id}",
      "let s = {q|(* \"inside\"|q} (* c *)\n",
      [ (1, " c ") ] );
    ( "underscore delimiter ids",
      "let s = {my_id|don't \"worry\" |x} |myid} (* here|my_id}\n(* next *)\n",
      [ (2, " next ") ] );
    ( "CRLF keeps line numbers",
      "let a = 1\r\n(* note *)\r\nlet b = \"x\"\r\n(* last *)\r\n",
      [ (2, " note "); (4, " last ") ] );
    ( "char literals",
      "let c = '\"' (* after *)\nlet x' = 1 (* primed *)\n",
      [ (1, " after "); (2, " primed ") ] );
    ( "string line continuation",
      "let s = \"a\\\n  b\"\n(* here *)\nlet t = 1\n",
      [ (3, " here ") ] );
    ( "string inside comment",
      "(* says \"*)\" here *) let live = 1\n",
      [ (1, " says \"*)\" here ") ] );
    ( "quoted string inside comment",
      "(* {q|*)|q} tail *) let live = 1\n",
      [ (1, " {q|*)|q} tail ") ] );
    ( "char literal inside comment",
      "(* it's a '\"' char *) let live = 1\n",
      [ (1, " it's a '\"' char ") ] );
    ( "CRLF inside comment",
      "(* one\r\n   \"*)\" two *)\r\nlet live = 1\r\n",
      [ (1, " one\r\n   \"*)\" two ") ] );
    ("docstring", "let x = 1\n(** Doc. *)\nlet y = 2\n", [ (2, "* Doc. ") ]);
  ]

let check (name, src, expected) =
  Alcotest.test_case name `Quick (fun () ->
      let s = Loader.load_string ~path:"lib/x/x.ml" src in
      Alcotest.(check bool) "parses" true (s.Loader.s_error = None);
      Alcotest.(check (list (pair int string))) "comments" expected
        s.Loader.s_comments)

let suite = List.map check cases
