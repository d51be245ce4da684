(** Randomized fault campaigns: fan hundreds of seeded runs across the
    domain pool, oracle-check every run, and shrink failures
    into replayable counterexamples.

    Determinism contract (asserted by the test suite, mirroring the
    explorer's): for a fixed [master_seed] and [runs], the campaign executes
    the same runs with the same verdicts regardless of [jobs] — per-run
    seeds are drawn before fan-out, each run is a pure function of its seed,
    and results are collected in input order.  The {!summary.digest} string
    folds every per-run outcome, so equal digests witness the contract.

    The optional [budget_check] is consulted between fixed-size batches
    (never inside a run), so a wall-clock budget can stop a campaign early
    without perturbing any run that does execute. *)

type config = {
  master_seed : int;
  runs : int;
  jobs : int;
  mutation : Tact_replica.Mutation.t;
      (** planted bug to enable ([Off] for real runs) *)
  max_shrunk : int;  (** shrink at most this many failures (shrinking re-runs
                         the schedule quadratically) *)
  budget_check : (unit -> bool) option;
      (** polled between batches; [false] stops the campaign early *)
}

val default : config
(** seed 1, 100 runs, 1 job, no mutation, 3 shrunk failures, no budget. *)

type outcome = {
  run_seed : int;
  violations : string list;
  fingerprint : Fingerprint.t;
  schedule_events : int;
  ops : int;
  timeouts : int;
  dropped : int;
}

type summary = {
  attempted : int;
  completed : int;  (** < [attempted] only when the budget stopped early *)
  outcomes : outcome list;
  failures : (int * Counterexample.t) list;
      (** failing seeds with their minimized counterexamples, at most
          [max_shrunk], in run order *)
  digest : string;  (** deterministic digest of all outcomes, jobs-invariant *)
}

val one_run : mutation:Tact_replica.Mutation.t -> int -> outcome
(** Execute a single seeded run: draw the plan and its fault schedule
    ({!Sample.draw}), run, oracle-check. *)

val shrink : mutation:Tact_replica.Mutation.t -> int -> Counterexample.t
(** The counterexample of a failing seeded run, minimized
    ({!Counterexample.of_failure}). *)

val run : config -> summary
