type outcome = Applied of Value.t | Conflict of string

type t =
  | Noop
  | Set of string * Value.t
  | Add of string * float
  | Append of string * Value.t
  | Named of string * Value.t

type procs = (string * (Value.t -> Db.t -> outcome)) list

let apply ~procs t db =
  match t with
  | Noop -> Applied Value.Nil
  | Set (k, v) ->
    Db.set db k v;
    Applied v
  | Add (k, d) -> Applied (Db.add db k d)
  | Append (k, v) ->
    Db.append db k v;
    Applied Value.Nil
  | Named (name, arg) -> (
    match List.assoc_opt name procs with
    | Some body -> body arg db
    | None -> Conflict (Printf.sprintf "unknown procedure %S" name))

(* Exact encoded size under Codec's wire format. *)
let wire_size = function
  | Noop -> 1
  | Set (k, v) | Append (k, v) -> 1 + 8 + String.length k + Value.wire_size v
  | Add (k, _) -> 1 + 8 + String.length k + 8
  | Named (name, arg) -> 1 + 8 + String.length name + Value.wire_size arg

let describe = function
  | Noop -> "noop"
  | Set (k, v) -> Printf.sprintf "set %s := %s" k (Value.to_string v)
  | Add (k, d) -> Printf.sprintf "add %s += %g" k d
  | Append (k, v) -> Printf.sprintf "append %s <- %s" k (Value.to_string v)
  | Named (name, arg) -> Printf.sprintf "%s(%s)" name (Value.to_string arg)

let conflicted = function Conflict _ -> true | Applied _ -> false
let result = function Applied v -> v | Conflict _ -> Value.Nil
