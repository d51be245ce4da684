(* A fixed reference workload, timed next to every measurement of CPU time
   so that the measurement can be read at a fixed machine speed.

   On a shared VM the same deterministic run costs up to half as much CPU
   again when the host is loaded, and the load shifts every few tens of
   seconds; medians over parts of a run do not remove that.  The reference
   slows down with the host: it allocates and walks a balanced map, so it
   meets the same cache, memory and GC pressure as the replicas. *)

module M = Map.Make (Int)

let sink = ref 0

let work () =
  let m = ref M.empty in
  for i = 0 to 10_000 do
    m := M.add ((i * 7919) land 0xffff) i !m
  done;
  sink := !sink + M.fold (fun k v a -> a + k + v) !m 0

(* CPU seconds the reference takes now. *)
let cost () =
  let c0 = Proc.cpu_s () in
  work ();
  Proc.cpu_s () -. c0

(* What the reference costs at the nominal speed: about its median on an
   unloaded 2-vCPU VM. *)
let nominal = 0.004

(* A CPU-time quantity measured when the reference cost [ref_cost], read at
   the nominal speed. *)
let normalise x ~ref_cost = x *. nominal /. ref_cost
