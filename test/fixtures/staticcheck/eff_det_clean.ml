(* Clean twin of eff_det_dirty.ml: the same shape with an injected clock
   value, seeded Random state, list iteration (plus one Hashtbl iteration
   carrying a lint: allow annotation) and a direct call through a plain
   parameter (no record-field escape).  Loaded as lib/core/det_clean.ml and
   declared a det root; must stay silent. *)
let stamp now = int_of_float now
let jitter st n = n + Random.State.int st 3
let spread items = List.iter (fun (_, v) -> ignore v) items
let fire f n = f n

let size tbl =
  let n = ref 0 in
  (* lint: allow hashtbl-iter -- counting is order-independent *)
  Hashtbl.iter (fun _ _ -> incr n) tbl;
  !n

let run now st items tbl f =
  let t = jitter st (stamp now) + size tbl in
  spread items;
  fire f t
