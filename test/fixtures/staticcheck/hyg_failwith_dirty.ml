(* Dirty twin for SA046 (naked-failwith): a direct failwith and one through
   a module alias of Stdlib.  Loaded as lib/store/failwith_dirty.ml. *)
module S = Stdlib

let parse s = match int_of_string_opt s with Some n -> n | None -> failwith "parse"
let check b = if not b then S.failwith "check"
