(** Consistency-guarantee oracles, run over a completed (quiesced) execution.

    Four families, toggled per scenario (see {!Scenario.checks}):

    - {b O1 bounds}: every served access respected its requested NE/OE/ST
      bounds, recomputed omnisciently against the ECG reference history
      ({!Tact_replica.Verify}).
    - {b O2 committed order}: replicas pairwise agree on the committed prefix
      (1SR), and the longest committed order is external- and/or causal-order
      compatible ({!Tact_core.Ecg}).
    - {b O3 convergence}: after quiescence all replicas hold equal version
      vectors and equal full database images.
    - {b O4 Theorem 1}: the numerical error any access actually experienced
      stays within the conit's {e declared} system-wide bound — the
      self-determined guarantee of the push protocol — regardless of what the
      access asked for.

    Each violated property yields one human-readable line; the empty list
    means the execution passed.

    The individual checks are exposed so other harnesses (the nemesis
    fault-campaign runner, {!Tact_nemesis.Oracle}) can reuse them outside a
    {!Scenario.t}. *)

val run : Scenario.t -> Tact_replica.System.t -> string list

val check_bounds : lcp:bool -> Tact_replica.System.t -> string list
(** O1: every served access within its requested bounds, vs the ECG. *)

val check_committed :
  prefix:bool -> ext:bool -> causal:bool -> Tact_replica.System.t -> string list
(** O2: pairwise committed-prefix agreement (1SR) and external/causal
    compatibility of the longest committed order. *)

val check_converged : Tact_replica.System.t -> string list
(** O3: equal version vectors and database images after quiescence. *)

val check_converged_sharded : Tact_replica.Sharded.t -> string list
(** O3 for sharded systems, interest-set-aware: within every shard all
    {e subscribed} replicas agree (vectors and databases) — replicas outside
    the interest set are exempt — and no shard's log holds a write whose
    conits route elsewhere ({!Tact_replica.Sharded.shard_leaks}).  The
    second half is what catches the {!Tact_replica.Mutation.Wrong_shard}
    planted routing bug. *)

val check_theorem1 : Tact_replica.System.t -> string list
(** O4: experienced NE within each conit's declared system-wide bound. *)
