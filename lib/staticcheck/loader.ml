type intf = {
  i_path : string;
  i_vals : (string * int) list;
  i_error : (int * int * string) option;
}

type allow = {
  a_file : bool;
  a_rules : string list;
  a_line : int;
  a_last : int;
}

type source = {
  s_path : string;
  s_dir : string;
  s_module : string;
  s_ast : Parsetree.structure option;
  s_error : (int * int * string) option;
  s_comments : (int * string) list;
  s_allows : allow list;
  s_allow_errors : (int * string) list;
  s_intf : intf option;
}

type t = {
  sources : source list;
  dirs : (string * string list) list;
}

let normalize path = String.concat "/" (String.split_on_char '\\' path)

let dir_of path =
  match String.rindex_opt path '/' with
  | None -> "."
  | Some i -> String.sub path 0 i

let module_of path =
  let base = Filename.remove_extension (Filename.basename path) in
  String.capitalize_ascii base

let pos_info (p : Lexing.position) =
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Exported value names (with the line of their [val] item) from a
   signature.  Only top-level [val]s: values re-exported through nested
   modules or module types are out of SA004's scope. *)
let vals_of_signature (sg : Parsetree.signature) =
  List.filter_map
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd ->
        Some (vd.pval_name.txt, vd.pval_name.loc.loc_start.pos_lnum)
      | _ -> None)
    sg

let load_intf ~path src =
  let path = normalize path in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  let vals, error =
    match Parse.interface lexbuf with
    | sg -> (vals_of_signature sg, None)
    | exception Syntaxerr.Error e ->
      let loc = Syntaxerr.location_of_error e in
      let l, c = pos_info loc.Location.loc_start in
      ([], Some (l, c, "syntax error"))
    | exception Lexer.Error (_, loc) ->
      let l, c = pos_info loc.Location.loc_start in
      ([], Some (l, c, "lexer error"))
    | exception _ -> ([], Some (1, 0, "parse error"))
  in
  { i_path = path; i_vals = vals; i_error = error }

(* --- suppression annotations ------------------------------------------- *)

let find_sub hay needle =
  let hn = String.length hay and nn = String.length needle in
  let rec go k =
    if k + nn > hn then None
    else if String.equal (String.sub hay k nn) needle then Some k
    else go (k + 1)
  in
  go 0

(* The rationale starts at the first [--] or em dash (U+2014). *)
let split_reason body =
  let cut =
    List.filter_map
      (fun sep ->
        Option.map (fun k -> (k, String.length sep)) (find_sub body sep))
      [ "--"; "\xe2\x80\x94" ]
  in
  match List.sort (fun (a, _) (b, _) -> Int.compare a b) cut with
  | [] -> (body, None)
  | (k, len) :: _ ->
    ( String.sub body 0 k,
      Some (String.trim (String.sub body (k + len) (String.length body - k - len)))
    )

let valid_key k =
  String.length k > 0
  && k.[0] >= 'a' && k.[0] <= 'z'
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-') k

let parse_allow text =
  let text = String.trim text in
  if not (String.starts_with ~prefix:"lint:" text) then None
  else
    let head, reason = split_reason (String.sub text 5 (String.length text - 5)) in
    let words =
      String.split_on_char ' '
        (String.map (function '\t' | '\n' | '\r' | ',' -> ' ' | c -> c) head)
      |> List.filter (fun w -> String.length w > 0)
    in
    Some
      (match (words, reason) with
      | ("allow" | "allow-file") :: [], _ -> Error "the annotation names no rule"
      | ("allow" | "allow-file" as kind) :: keys, Some r when String.length r > 0 -> (
        match List.find_opt (fun k -> not (valid_key k)) keys with
        | Some k -> Error (Printf.sprintf "%S is not a rule key" k)
        | None -> Ok (String.equal kind "allow-file", keys))
      | ("allow" | "allow-file") :: _, _ -> Error "missing `-- reason`"
      | _ -> Error "expected `lint: allow` or `lint: allow-file`")

let covers a ~rule line =
  List.exists (String.equal rule) a.a_rules
  && (a.a_file || (line >= a.a_line && line <= a.a_last))

let allowed src ~rule line = List.exists (fun a -> covers a ~rule line) src.s_allows

let allows comments =
  List.fold_right
    (fun (line, text) (ok, bad) ->
      match parse_allow text with
      | None -> (ok, bad)
      | Some (Error why) -> (ok, (line, why) :: bad)
      | Some (Ok (a_file, a_rules)) ->
        let newlines =
          String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text
        in
        ({ a_file; a_rules; a_line = line; a_last = line + newlines + 1 } :: ok,
         bad))
    comments ([], [])

let load_string ?intf ~path src =
  let path = normalize path in
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf path;
  let ast, error =
    match Parse.implementation lexbuf with
    | ast -> (Some ast, None)
    | exception Syntaxerr.Error e ->
      let loc = Syntaxerr.location_of_error e in
      let l, c = pos_info loc.Location.loc_start in
      (None, Some (l, c, "syntax error"))
    | exception Lexer.Error (_, loc) ->
      let l, c = pos_info loc.Location.loc_start in
      (None, Some (l, c, "lexer error"))
    | exception _ -> (None, Some (1, 0, "parse error"))
  in
  (* The parse leaves every comment it lexed in [Lexer.comments], in source
     order (a docstring's text keeps its leading '*'); the next parse resets
     the list.  After a syntax error only the comments before it are kept. *)
  let comments =
    List.map
      (fun (text, (loc : Location.t)) -> (loc.loc_start.pos_lnum, text))
      (Lexer.comments ())
  in
  let s_allows, s_allow_errors = allows comments in
  let intf =
    match intf with
    | None -> None
    | Some isrc -> Some (load_intf ~path:(path ^ "i") isrc)
  in
  {
    s_path = path;
    s_dir = dir_of path;
    s_module = module_of path;
    s_ast = ast;
    s_error = error;
    s_comments = comments;
    s_allows;
    s_allow_errors;
    s_intf = intf;
  }

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

let load_file path =
  let mli = path ^ "i" in
  let intf =
    if Filename.check_suffix path ".ml" && Sys.file_exists mli then
      Some (read_file mli)
    else None
  in
  load_string ?intf ~path (read_file path)

let of_sources sources =
  let sources =
    List.sort (fun a b -> String.compare a.s_path b.s_path) sources
  in
  let dirs =
    List.fold_left
      (fun acc s ->
        let cur = match List.assoc_opt s.s_dir acc with
          | Some ms -> ms
          | None -> []
        in
        (s.s_dir, s.s_module :: cur) :: List.remove_assoc s.s_dir acc)
      [] sources
  in
  let dirs =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun (d, ms) -> (d, List.sort String.compare ms)) dirs)
  in
  { sources; dirs }

let rec walk acc root rel =
  let full = if String.equal root "." then rel else Filename.concat root rel in
  if Sys.file_exists full && Sys.is_directory full then
    Array.fold_left
      (fun acc entry -> walk acc root (rel ^ "/" ^ entry))
      acc
      (let entries = Sys.readdir full in
       Array.sort String.compare entries;
       entries)
  else if Sys.file_exists full && Filename.check_suffix full ".ml" then
    (* pair the implementation with its sibling interface when present *)
    let intf =
      let mli = full ^ "i" in
      if Sys.file_exists mli then Some (read_file mli) else None
    in
    load_string ?intf ~path:rel (read_file full) :: acc
  else acc

let load_dirs ?(root = ".") dirs =
  of_sources (List.fold_left (fun acc d -> walk acc root d) [] dirs)

let modules_in_dir t dir =
  match List.assoc_opt dir t.dirs with Some ms -> ms | None -> []

let find_module t ~dir name =
  List.find_opt
    (fun s -> String.equal s.s_dir dir && String.equal s.s_module name)
    t.sources

let wrapper_dir name =
  let prefix = "Tact_" in
  let plen = String.length prefix in
  if
    String.length name > plen
    && String.equal (String.sub name 0 plen) prefix
  then
    Some ("lib/" ^ String.lowercase_ascii
            (String.sub name plen (String.length name - plen)))
  else None
