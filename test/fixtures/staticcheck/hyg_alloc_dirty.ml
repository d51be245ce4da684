(* Dirty twin for SA047 (alloc-hot-path): per-call Bytes/Buffer allocation,
   once through a module alias.  Loaded as lib/store/alloc_dirty.ml (in
   scope) and as lib/transport/alloc_dirty.ml (out of scope). *)
module B = Bytes

let header n = Bytes.make 1 (Char.chr n) |> Bytes.cat (Bytes.create 3)
let scratch () = B.create 64
let text () = Buffer.create 16
