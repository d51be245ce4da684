(** Execute one sampled plan under one fault schedule and check every
    oracle: the reused O1 (bounds), O2 (committed order, [ext] only under
    Stability commitment), O4 (Theorem 1), plus the nemesis O5 (liveness,
    which subsumes O3 convergence) and O6 (unavailability accounting).

    The run is a pure function of [(plan, schedule, mutation)] — the system is
    built jitter-seeded from the plan's seed, loss-free at the {!System}
    level (loss is injected only through fault events), and every stochastic
    fault knob is self-seeded. *)

type result = {
  violations : string list;  (** empty = passed every oracle *)
  fingerprint : Tact_check.Fingerprint.t;  (** final state digest *)
  ops : int;
  timeouts : int;
  messages : int;
  dropped : int;
}

val execute :
  ?mutation:Tact_replica.Mutation.t ->
  Sample.plan ->
  Fault.schedule ->
  result
(** [mutation] (default [Off]) plants a bug in the system under test — the
    hook the fuzzer's self-tests use ({!Tact_replica.Mutation}).  Planted
    bugs are not configuration: the plan's config, which also parameterises
    the oracles, is the one a production replica would run. *)
