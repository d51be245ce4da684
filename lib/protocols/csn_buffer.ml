open Tact_util

type t = {
  order : Tact_store.Write.id Vec.t;
  mutable pending : (int * Tact_store.Write.id list) list; (* (start, slice) *)
}

let create () = { order = Vec.create (); pending = [] }

let known t = Vec.length t.order

let append t id = Vec.push t.order id

let rec agrees_from order pos = function
  | id :: rest when pos < Vec.length order ->
    Vec.get order pos = id && agrees_from order (pos + 1) rest
  | _ -> true

let agrees t ~start ids = start >= 0 && agrees_from t.order start ids

(* Apply a slice that starts at or before the known prefix end: skip the
   overlap, append the tail.  A slice whose overlap disagrees is dropped
   whole; returns how many slices were dropped (0 or 1). *)
let apply t (start, ids) =
  if not (agrees t ~start ids) then 1
  else begin
    List.iteri
      (fun i id -> if start + i >= Vec.length t.order then Vec.push t.order id)
      ids;
    0
  end

let rec drain t dropped =
  let len = Vec.length t.order in
  let applicable, rest =
    List.partition (fun (start, _) -> start <= len) t.pending
  in
  t.pending <- rest;
  let dropped = List.fold_left (fun n s -> n + apply t s) dropped applicable in
  if Vec.length t.order > len then drain t dropped else dropped

let offer t ~start ids =
  if ids = [] then 0
  else if start <= Vec.length t.order then drain t (apply t (start, ids))
  else begin
    t.pending <- (start, ids) :: t.pending;
    drain t 0
  end

let slice_from t pos = Vec.sub_list t.order ~pos

let get t i = Vec.get t.order i
