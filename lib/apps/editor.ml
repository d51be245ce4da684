open Tact_store
open Tact_replica

let add_conit ~para = Printf.sprintf "para.%d.add" para
let del_conit ~para = Printf.sprintf "para.%d.del" para
let author_conit ~para ~author = Printf.sprintf "para.%d.author.%d" para author
let para_key ~para = Printf.sprintf "para.%d" para

let text_of db para =
  match Db.get db (para_key ~para) with
  | Value.Str s -> s
  | Value.Nil -> ""
  | _ -> invalid_arg "Editor: paragraph is not text"

let insert_proc arg db =
  match arg with
  | Value.List [ Value.Int para; Value.Str text ] ->
    Db.set db (para_key ~para) (Value.Str (text_of db para ^ text));
    Op.Applied Value.Nil
  | _ -> Op.Conflict "editor.insert: bad argument"

let delete_proc arg db =
  match arg with
  | Value.List [ Value.Int para; Value.Int count ] ->
    let s = text_of db para in
    let keep = max 0 (String.length s - count) in
    Db.set db (para_key ~para) (Value.Str (String.sub s 0 keep));
    Op.Applied (Value.Int (String.length s - keep))
  | _ -> Op.Conflict "editor.delete: bad argument"

let procs = [ ("editor.insert", insert_proc); ("editor.delete", delete_proc) ]

let insert_text session ~para ~author ~text ~k =
  let w = float_of_int (String.length text) in
  Session.affect_conit session (add_conit ~para) ~nweight:w ~oweight:w;
  Session.affect_conit session (author_conit ~para ~author) ~nweight:w ~oweight:w;
  Session.write session
    (Op.Named ("editor.insert", Value.List [ Value.Int para; Value.Str text ]))
    ~k

let delete_chars session ~para ~author ~count ~k =
  let w = float_of_int count in
  Session.affect_conit session (del_conit ~para) ~nweight:w ~oweight:w;
  Session.affect_conit session (author_conit ~para ~author) ~nweight:w ~oweight:w;
  Session.write session
    (Op.Named ("editor.delete", Value.List [ Value.Int para; Value.Int count ]))
    ~k

let read_paragraph session ~para ~max_unseen_chars ~max_instability ~max_delay ~k =
  Session.dependon_conit session (add_conit ~para) ~ne:max_unseen_chars
    ~oe:max_instability ~st:max_delay ();
  Session.dependon_conit session (del_conit ~para) ~ne:max_unseen_chars
    ~oe:max_instability ~st:max_delay ();
  Session.read session
    (fun db -> Value.Str (text_of db para))
    ~k:(fun v -> k (match v with Value.Str s -> s | _ -> ""))

let document db ~paras = List.init paras (fun p -> text_of db p)
