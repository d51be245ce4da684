(* The comment/string stripper behind tact_analyze's comment annotations:
   blanking must never leak literal contents into the lintable text, and
   line structure must survive exactly (allow-annotations are addressed by
   line number). *)

module Strip = Tact_staticcheck.Strip

let lines s = List.length (String.split_on_char '\n' s)

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

let check_gone src needle =
  let stripped, _ = Strip.strip src in
  Alcotest.(check bool)
    (Printf.sprintf "%S blanked" needle)
    false (contains stripped needle);
  Alcotest.(check int) "line count preserved" (lines src) (lines stripped)

let test_comment_blanked () =
  check_gone "let x = 1 (* compare *)\nlet y = 2\n" "compare";
  let _, comments = Strip.strip "let x = 1\n(* note\n   more *)\nlet y = 2\n" in
  Alcotest.(check (list (pair int string)))
    "comment text and start line recorded"
    [ (2, " note\n   more ") ]
    comments

let test_nested_comment () =
  check_gone "(* a (* inner *) b *) let z = 1\n" "inner";
  check_gone "(* a (* inner *) b *) let z = 1\n" "b *)"

let test_string_blanked () =
  check_gone {|let s = "compare (* not a comment *)"|} "compare";
  (* a comment-opener inside the string must not open a comment *)
  let stripped, comments =
    Strip.strip {|let s = "(*" let live = 1|}
  in
  Alcotest.(check bool) "code after string survives" true
    (contains stripped "let live = 1");
  Alcotest.(check int) "no comment recorded" 0 (List.length comments)

let test_escaped_quote () =
  check_gone {|let s = "a\"compare\"b" let t = 1|} "compare";
  let stripped, _ = Strip.strip {|let s = "a\"b" let live = 1|} in
  Alcotest.(check bool) "code after escape survives" true
    (contains stripped "let live = 1")

let test_quoted_string () =
  check_gone "let s = {q|compare \"inside\"|q} let t = 1\n" "compare";
  let stripped, _ = Strip.strip "let s = {q|x|q} let live = 1\n" in
  Alcotest.(check bool) "code after quoted string survives" true
    (contains stripped "let live = 1")

(* The underscore-delimiter bug: [{my_id|...|my_id}] used to fall out of
   the quoted-string scanner at the '_', desyncing on any quote or
   lookalike terminator inside the literal. *)
let test_quoted_string_underscore_id () =
  let src =
    "let s = {my_id|don't \"worry\" |x} |myid} here|my_id}\nlet live = compare\n"
  in
  let stripped, comments = Strip.strip src in
  Alcotest.(check bool) "literal blanked" false (contains stripped "worry");
  Alcotest.(check bool) "lookalike terminator skipped" false
    (contains stripped "here");
  Alcotest.(check bool) "next line intact" true
    (contains stripped "let live = compare");
  Alcotest.(check int) "line count preserved" (lines src) (lines stripped);
  Alcotest.(check int) "no comment recorded" 0 (List.length comments)

let test_crlf_line_numbers () =
  let src = "let a = 1\r\n(* note *)\r\nlet b = \"compare\"\r\nlet c = 3\r\n" in
  let stripped, comments = Strip.strip src in
  Alcotest.(check int) "line count preserved" (lines src) (lines stripped);
  Alcotest.(check (list (pair int string))) "comment on line 2"
    [ (2, " note ") ] comments;
  Alcotest.(check bool) "string blanked" false (contains stripped "compare")

let test_char_literals () =
  let stripped, comments = Strip.strip "let c = '\"' let live = 1\n" in
  Alcotest.(check bool) "quote char does not open a string" true
    (contains stripped "let live = 1");
  Alcotest.(check int) "no comment" 0 (List.length comments);
  (* primes: [x'] is an identifier, not a char literal *)
  let stripped, _ = Strip.strip "let x' = 1 let y = x'\n" in
  Alcotest.(check bool) "primed identifier intact" true
    (contains stripped "let y = x'")

let test_string_line_continuation () =
  (* an escaped newline inside a string still advances the line counter *)
  let src = "let s = \"a\\\n  b\"\n(* here *)\nlet t = 1\n" in
  let _, comments = Strip.strip src in
  Alcotest.(check (list (pair int string))) "comment line survives continuation"
    [ (3, " here ") ] comments

(* Literals *inside* comments are scanned the way the compiler's lexer
   scans them: a "*)" sitting in a string, quoted string or char literal
   within a comment must not terminate the comment. *)
let test_comment_embedded_string () =
  let src = "(* says \"*)\" here *) let live = 1\n" in
  let stripped, comments = Strip.strip src in
  Alcotest.(check bool) "string *) does not end the comment" true
    (contains stripped "let live = 1");
  Alcotest.(check bool) "comment tail blanked" false (contains stripped "here");
  Alcotest.(check int) "one comment" 1 (List.length comments);
  Alcotest.(check bool) "comment text recorded" true
    (contains (snd (List.hd comments)) "says")

let test_comment_embedded_quoted_string () =
  let src = "(* {q|*)|q} tail *) let live = 1\n" in
  let stripped, comments = Strip.strip src in
  Alcotest.(check bool) "quoted-string *) does not end the comment" true
    (contains stripped "let live = 1");
  Alcotest.(check bool) "comment tail blanked" false (contains stripped "tail");
  Alcotest.(check int) "one comment" 1 (List.length comments)

let test_comment_embedded_char_and_prime () =
  (* '"' must not open a string inside the comment, and the apostrophe in
     a word must not start a char-literal scan that swallows the rest. *)
  let src = "(* it's a '\"' char *) let live = 1\n" in
  let stripped, comments = Strip.strip src in
  Alcotest.(check bool) "comment ends where it ends" true
    (contains stripped "let live = 1");
  Alcotest.(check int) "one comment" 1 (List.length comments)

let test_comment_crlf () =
  let src = "(* one\r\n   \"*)\" two *)\r\nlet live = 1\r\n" in
  let stripped, comments = Strip.strip src in
  Alcotest.(check int) "line count preserved" (lines src) (lines stripped);
  Alcotest.(check bool) "code survives" true (contains stripped "let live = 1");
  match comments with
  | [ (l, text) ] ->
    Alcotest.(check int) "comment opens on line 1" 1 l;
    Alcotest.(check bool) "both lines recorded" true (contains text "two")
  | l -> Alcotest.failf "expected one comment, got %d" (List.length l)

let suite =
  [
    Alcotest.test_case "comment blanked and recorded" `Quick test_comment_blanked;
    Alcotest.test_case "nested comments" `Quick test_nested_comment;
    Alcotest.test_case "string literals blanked" `Quick test_string_blanked;
    Alcotest.test_case "escaped quotes" `Quick test_escaped_quote;
    Alcotest.test_case "quoted strings {id|..|id}" `Quick test_quoted_string;
    Alcotest.test_case "underscore delimiter ids" `Quick
      test_quoted_string_underscore_id;
    Alcotest.test_case "CRLF keeps line numbers" `Quick test_crlf_line_numbers;
    Alcotest.test_case "char literals" `Quick test_char_literals;
    Alcotest.test_case "string line continuation" `Quick
      test_string_line_continuation;
    Alcotest.test_case "string inside comment" `Quick
      test_comment_embedded_string;
    Alcotest.test_case "quoted string inside comment" `Quick
      test_comment_embedded_quoted_string;
    Alcotest.test_case "char literal inside comment" `Quick
      test_comment_embedded_char_and_prime;
    Alcotest.test_case "CRLF inside comment" `Quick test_comment_crlf;
  ]
