type undo_entry = { u_key : string; u_prev : Value.t option }
type undo = undo_entry list

let no_undo = []

(* One mutable cell per key: a read-modify-write of a bound key is one
   [Hashtbl.find] and an in-place store — one hash, no option, no rebinding.
   A copy must copy the cells too, or the two images would share them. *)
type cell = { mutable v : Value.t }

type t = {
  tbl : (string, cell) Hashtbl.t;
  mutable watch : undo_entry list ref option;
}

let create bindings =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k { v }) bindings;
  { tbl; watch = None }

let copy t =
  let tbl = Hashtbl.copy t.tbl in
  (* lint: allow hashtbl-filter-map-inplace — per-cell copy, order-independent *)
  Hashtbl.filter_map_inplace (fun _ c -> Some { v = c.v }) tbl;
  { tbl; watch = None }

let get t k = match Hashtbl.find t.tbl k with c -> c.v | exception Not_found -> Value.Nil

(* Journal the binding [k] had, under a recording only: the option is built
   there, so an unrecorded mutation allocates nothing for the journal. *)
let journal_bound t k prev =
  match t.watch with
  | Some log -> log := { u_key = k; u_prev = Some prev } :: !log
  | None -> ()

let journal_unbound t k =
  match t.watch with
  | Some log -> log := { u_key = k; u_prev = None } :: !log
  | None -> ()

(* Bind [k] to [v], its cell found or made. *)
let store t k v =
  match Hashtbl.find t.tbl k with
  | c -> c.v <- v
  | exception Not_found -> Hashtbl.add t.tbl k { v }

let set t k v =
  match Hashtbl.find t.tbl k with
  | c ->
    journal_bound t k c.v;
    c.v <- v
  | exception Not_found ->
    journal_unbound t k;
    Hashtbl.add t.tbl k { v }

let get_float t k = Value.to_float (get t k)
let get_int t k = Value.to_int (get t k)

(* One find serves both the sum and the undo journal. *)
let add t k delta =
  match Hashtbl.find t.tbl k with
  | c ->
    let v = Value.Float (Value.to_float c.v +. delta) in
    journal_bound t k c.v;
    c.v <- v;
    v
  | exception Not_found ->
    let v = Value.Float (0.0 +. delta) in
    journal_unbound t k;
    Hashtbl.add t.tbl k { v };
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
  match f () with
  | result ->
    t.watch <- None;
    (result, !log)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.watch <- None;
    Printexc.raise_with_backtrace e bt

(* The journal holds entries newest first, and each entry stores the binding
   before its own mutation, so replaying the journal in list order restores
   the pre-recording state — even with repeated writes to one key. *)
let rec revert t (u : undo) =
  match u with
  | [] -> ()
  | { u_key; u_prev } :: rest ->
    (match u_prev with
    | Some v -> store t u_key v
    | None -> Hashtbl.remove t.tbl u_key);
    revert t rest

exception Unequal

let equal a b =
  (* Missing keys read as Nil, so a key bound to Nil on one side and absent
     on the other still compares equal.  Short-circuits on first mismatch. *)
  let subset x y =
    try
      (* lint: allow hashtbl-iter — membership test, order-independent *)
      Hashtbl.iter
        (fun k c -> if not (Value.equal c.v (get y k)) then raise Unequal)
        x.tbl;
      true
    with Unequal -> false
  in
  subset a b && subset b a

let size t = Hashtbl.length t.tbl
