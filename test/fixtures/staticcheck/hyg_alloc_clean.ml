(* Clean twin of hyg_alloc_dirty.ml: the allocations are cold paths and
   say so.  Loaded as lib/store/alloc_clean.ml; must stay silent. *)
module B = Bytes

(* lint: allow alloc-hot-path -- one-shot header for tests, not the batch
   path *)
let header n = Bytes.make 1 (Char.chr n) |> Bytes.cat (Bytes.create 3)
let scratch () = B.create 64 (* lint: allow alloc-hot-path -- arena setup *)
