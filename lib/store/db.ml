type undo_entry = { u_key : string; u_prev : Value.t option }
type undo = undo_entry list

let no_undo = []

type t = {
  tbl : (string, Value.t) Hashtbl.t;
  mutable watch : undo_entry list ref option;
}

let create bindings =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) bindings;
  { tbl; watch = None }

let copy t = { tbl = Hashtbl.copy t.tbl; watch = None }

let get t k = match Hashtbl.find_opt t.tbl k with Some v -> v | None -> Value.Nil

let set t k v =
  (match t.watch with
  | Some log -> log := { u_key = k; u_prev = Hashtbl.find_opt t.tbl k } :: !log
  | None -> ());
  Hashtbl.replace t.tbl k v

let get_float t k = Value.to_float (get t k)
let get_int t k = Value.to_int (get t k)

(* One find serves both the sum and the undo journal. *)
let add t k delta =
  let prev = Hashtbl.find_opt t.tbl k in
  let v =
    Value.Float
      ((match prev with Some p -> Value.to_float p | None -> 0.0) +. delta)
  in
  (match t.watch with
  | Some log -> log := { u_key = k; u_prev = prev } :: !log
  | None -> ());
  Hashtbl.replace t.tbl k v;
  v

let append t k v = set t k (Value.List (v :: Value.to_list (get t k)))

(* lint: allow hashtbl-fold — key collection; callers sort before iterating *)
let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl []

(* Every mutation inside [f] is journalled; the returned undo record reverts
   them all (see {!revert}).  Recordings do not nest. *)
let recording t f =
  assert (t.watch = None);
  let log = ref [] in
  t.watch <- Some log;
  Fun.protect
    ~finally:(fun () -> t.watch <- None)
    (fun () ->
      let result = f () in
      (result, !log))

(* The journal holds entries newest first, and each entry stores the binding
   before its own mutation, so replaying the journal in list order restores
   the pre-recording state — even with repeated writes to one key. *)
let revert t (u : undo) =
  List.iter
    (fun { u_key; u_prev } ->
      match u_prev with
      | Some v -> Hashtbl.replace t.tbl u_key v
      | None -> Hashtbl.remove t.tbl u_key)
    u

exception Unequal

let equal a b =
  (* Missing keys read as Nil, so a key bound to Nil on one side and absent
     on the other still compares equal.  Short-circuits on first mismatch. *)
  let subset x y =
    try
      (* lint: allow hashtbl-iter — membership test, order-independent *)
      Hashtbl.iter
        (fun k v ->
          let w = match Hashtbl.find_opt y.tbl k with Some w -> w | None -> Value.Nil in
          if not (Value.equal v w) then raise Unequal)
        x.tbl;
      true
    with Unequal -> false
  in
  subset a b && subset b a

let size t = Hashtbl.length t.tbl
