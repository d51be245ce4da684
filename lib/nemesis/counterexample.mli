(** Shrunk, replayable fault-campaign counterexamples.

    A counterexample stores the run's master seed (the whole workload +
    topology + configuration plan re-derives from it — {!Sample.plan}), the
    planted-bug selector, and the {e shrunk} disturbance events.  Replay is
    exact: plans are pure functions of the seed and fault knobs are
    self-seeded, so the recorded violations and final-state fingerprint
    reproduce bit-for-bit. *)

type t = {
  seed : int;
  mutation : Tact_replica.Mutation.t;
  events : Fault.event list;
  quiet_after : float;
  violations : string list;
  fingerprint : Tact_check.Fingerprint.t;
}

val of_failure :
  seed:int -> mutation:Tact_replica.Mutation.t -> schedule:Fault.schedule -> t
(** Minimize a failing run and record the shrunk run's violations and
    fingerprint.  Shrinking is greedy delta-debugging: drop any single
    disturbance whose removal still violates, to a local minimum, then
    tighten [quiet_after] down to just after the last surviving disturbance
    if the violation persists. *)

val to_json : t -> Tact_check.Json.t
val of_json : Tact_check.Json.t -> (t, string) result
val save : path:string -> t -> unit
val load : path:string -> (t, string) result

type replay_verdict = {
  result : Runner.result;
  reproduced : bool;  (** violations observed again *)
  fingerprint_match : bool;  (** final state identical to the recorded one *)
}

val replay : t -> replay_verdict
