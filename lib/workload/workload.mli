(** Synthetic workload generation.

    The paper's evaluation workloads are Poisson arrival processes over
    uniformly or Zipf-chosen items; these helpers schedule such processes on
    the simulation engine deterministically from a seed. *)

val poisson :
  Tact_sim.Engine.t ->
  rng:Tact_util.Prng.t ->
  rate:float ->
  until:float ->
  (unit -> unit) ->
  unit
(** Schedule events with exponential inter-arrival times of mean [1/rate]
    from now until virtual time [until]. *)

val staggered :
  Tact_sim.Engine.t -> start:float -> gap:float -> count:int -> (int -> unit) -> unit
(** Schedule [count] events at [start], [start+gap], ... — deterministic
    fixed-rate workloads. *)
