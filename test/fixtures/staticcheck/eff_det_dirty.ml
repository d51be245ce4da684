(* Planted dirty twin for the deterministic-core effect rules
   (SA050-SA053): wall-clock, global Random, Hashtbl iteration (under prose
   that is no allow annotation) and a record-field escape, each in a
   helper.  Loaded as lib/core/det_dirty.ml and declared a det root. *)
type hooks = { on_step : int -> int }

let stamp () = int_of_float (Unix.gettimeofday ())
let jitter n = n + Random.int 3
let spread tbl = Hashtbl.iter (fun _ k -> ignore k) tbl (* never allow hashtbl order to leak *)
let fire h n = h.on_step n

let run h tbl =
  let t = jitter (stamp ()) in
  spread tbl;
  fire h t
