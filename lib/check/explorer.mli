(** Bounded DFS over a scenario's schedule space.

    The explorer runs the default schedule, then systematically deviates: at
    each choice-phase step it considers firing each other pending event (one
    within [window] of the earliest) instead of the default, re-executing the
    scenario from scratch with the extended deviation map — stateless model
    checking in the Verisoft tradition.  Exploration is bounded by [depth]
    (steps at which deviations may be injected), [preemptions] (deviations
    per schedule) and [max_schedules] (total executions).

    Two reduction heuristics, both switchable:

    - {b dedup}: a (state fingerprint, dispatched event) pair already
      witnessed is not explored again — the continuation is a function of
      the state under the deterministic default policy;
    - {b prune}: a deviation that only commutes forward — the same event
      fires later anyway, and everything dispatched in between acts on other
      replicas — is skipped (sleep-set/DPOR-style independence).

    Both can skip schedules a full search would run (fingerprints collide,
    independence ignores the virtual clock, dedup ignores remaining budgets),
    so they trade coverage for speed; they can never produce a false
    violation, because oracles only judge schedules that actually executed.

    On the first violating schedule the explorer minimizes the deviation map
    and returns a replayable counterexample.

    With [jobs > 1] the schedule space is explored by a [jobs]-domain pool
    (the caller is one of them) in two phases: an optimistic parallel
    sweep memoizes a summary of every execution it performs (sharing the
    dedup set and violation cutoff behind locks), then the sequential walk
    above replays over the memo table, re-executing any schedule the sweep missed.  Because the
    walk itself is the same algorithm either way, the verdict, statistics
    and minimized counterexample are bit-identical to [jobs:1]; dedup races
    only shift work between the sweep and the replay. *)

type options = {
  depth : int;  (** branch only at steps < depth *)
  preemptions : int;  (** max deviations per schedule *)
  window : float;
      (** only deviate to events within this much virtual time of the
          earliest pending event *)
  prune : bool;  (** commute-forward (sleep-set-style) pruning *)
  dedup : bool;  (** fingerprint-based state deduplication *)
  max_schedules : int;  (** execution budget; <= 0 means unlimited *)
}

val default_options : options
val smoke_options : options
(** Tighter budgets for the CI smoke alias. *)

type stats = {
  schedules : int;  (** executions run *)
  deduped : int;  (** branches skipped by fingerprint dedup *)
  pruned : int;  (** branches skipped by commute-forward pruning *)
  max_steps : int;  (** longest choice phase seen *)
  diverged : int;  (** replay divergences (should be 0 during exploration) *)
  exhausted : bool;
      (** the bounded space was fully explored (budget not exceeded, no
          violation cut the search short) *)
}

type outcome = {
  stats : stats;
  counterexample : Counterexample.t option;
      (** minimized first violation, if any *)
}

val explore :
  ?options:options ->
  ?jobs:int ->
  ?mutation:Tact_replica.Mutation.t ->
  Scenario.t ->
  outcome
(** [jobs] defaults to 1 (fully sequential); [jobs > 1] runs the parallel
    sweep + sequential replay described above.  [mutation] (default [Off])
    plants a bug in every run ({!Tact_replica.Mutation}). *)
