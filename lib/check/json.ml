type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* 15 significant digits when they read back as [x] (so 0.1 prints as 0.1),
   else the 17 that always do. *)
let num_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if Float.equal (float_of_string s) x then s else Printf.sprintf "%.17g" x

let rec emit b ~indent ~level v =
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let newline () = if indent then Buffer.add_char b '\n' in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num x -> Buffer.add_string b (num_to_string x)
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | Arr [] -> Buffer.add_string b "[]"
  | Arr items ->
    Buffer.add_char b '[';
    newline ();
    List.iteri
      (fun i x ->
        if i > 0 then begin
          Buffer.add_char b ',';
          newline ()
        end;
        pad (level + 1);
        emit b ~indent ~level:(level + 1) x)
      items;
    newline ();
    pad level;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    Buffer.add_char b '{';
    newline ();
    List.iteri
      (fun i (k, x) ->
        if i > 0 then begin
          Buffer.add_char b ',';
          newline ()
        end;
        pad (level + 1);
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\": ";
        emit b ~indent ~level:(level + 1) x)
      fields;
    newline ();
    pad level;
    Buffer.add_char b '}'

let to_string ?(indent = true) v =
  let b = Buffer.create 256 in
  emit b ~indent ~level:0 v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c fmt =
  Printf.ksprintf (fun m -> raise (Parse_error (Printf.sprintf "at byte %d: %s" c.pos m))) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let continue = ref true in
  while !continue do
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> advance c
    | _ -> continue := false
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail c "expected '%c', found '%c'" ch x
  | None -> fail c "expected '%c', found end of input" ch

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c "invalid literal"

let parse_string_body c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
      | Some '"' -> Buffer.add_char b '"'; advance c
      | Some '\\' -> Buffer.add_char b '\\'; advance c
      | Some '/' -> Buffer.add_char b '/'; advance c
      | Some 'n' -> Buffer.add_char b '\n'; advance c
      | Some 'r' -> Buffer.add_char b '\r'; advance c
      | Some 't' -> Buffer.add_char b '\t'; advance c
      | Some 'b' -> Buffer.add_char b '\b'; advance c
      | Some 'f' -> Buffer.add_char b '\012'; advance c
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
        let hex = String.sub c.src c.pos 4 in
        let code =
          try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
        in
        c.pos <- c.pos + 4;
        (* Traces are ASCII; encode BMP code points as UTF-8 for robustness. *)
        if code < 0x80 then Buffer.add_char b (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
        end
      | _ -> fail c "bad escape");
      go ()
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let continue = ref true in
  while !continue do
    match peek c with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> advance c
    | _ -> continue := false
  done;
  let s = String.sub c.src start (c.pos - start) in
  match float_of_string_opt s with
  | Some x -> Num x
  | None -> fail c "bad number %S" s

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let fields = ref [] in
      let continue = ref true in
      while !continue do
        skip_ws c;
        let k = parse_string_body c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        fields := (k, v) :: !fields;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c
        | Some '}' ->
          advance c;
          continue := false
        | _ -> fail c "expected ',' or '}'"
      done;
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let items = ref [] in
      let continue = ref true in
      while !continue do
        let v = parse_value c in
        items := v :: !items;
        skip_ws c;
        match peek c with
        | Some ',' -> advance c
        | Some ']' ->
          advance c;
          continue := false
        | _ -> fail c "expected ',' or ']'"
      done;
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then Error "trailing garbage after JSON value"
    else Ok v
  | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float = function Num x -> Some x | _ -> None

let to_int = function
  | Num x when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function Arr items -> Some items | _ -> None
