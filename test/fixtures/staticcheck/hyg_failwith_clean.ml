(* Clean twin of hyg_failwith_dirty.ml: the precondition failure uses
   invalid_arg, and the aliased failwith carries an allow annotation.
   Loaded as lib/store/failwith_clean.ml; must stay silent. *)
module S = Stdlib

let parse s = match int_of_string_opt s with Some n -> n | None -> invalid_arg "parse"

(* lint: allow naked-failwith -- callers match on Failure by contract *)
let check b = if not b then S.failwith "check"
