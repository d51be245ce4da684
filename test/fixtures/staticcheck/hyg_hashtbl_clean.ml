(* Clean twin of hyg_hashtbl_dirty.ml: the same sites, each annotated
   order-independent with the key of its function.  Loaded as
   lib/store/hashtbl_clean.ml; must stay silent. *)
module H = Hashtbl

(* lint: allow hashtbl-fold -- keys are sorted before use *)
let keys tbl = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
let visit tbl f = H.iter f tbl (* lint: allow hashtbl-iter -- f commutes *)

(* lint: allow hashtbl-to-seq -- pairs are sorted by key below *)
let pairs tbl = List.sort (fun (a, _) (b, _) -> String.compare a b) (List.of_seq (H.to_seq tbl))
