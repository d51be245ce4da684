(* Dirty twin for SA045 (hashtbl-order): a direct Hashtbl.fold, the same
   pattern through a module alias, and an iteration under prose that is no
   allow annotation.  Loaded as lib/store/hashtbl_dirty.ml. *)
module H = Hashtbl

let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
let visit tbl f = H.iter f tbl

(* never allow hashtbl order to leak into the output *)
let pairs tbl = List.of_seq (H.to_seq tbl)
