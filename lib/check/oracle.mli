(** Consistency-guarantee oracles, run over a completed (quiesced) execution.

    Six families; the plan's {!Sample.checks} toggle O1-O4, and O5-O6 judge
    every run that has a fault schedule:

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
    - {b O5 liveness} and {b O6 unavailability accounting}: recovery from
      the fault schedule (doc/FAULTS.md).

    Each violated property yields one human-readable line; the empty list
    means the execution passed.  The checks that are not bound to one
    system take a {!Tact_replica.Sharded.t}; a plain system is passed as
    {!Tact_replica.Sharded.of_system}. *)

type op_obs = {
  o_index : int;
  o_rid : int;
  o_submit : float;
  o_deadline : float option;
  o_read : bool;
  mutable o_completions : int;  (** times the client's [k] fired *)
  mutable o_timeouts : int;  (** times [on_timeout] fired *)
}
(** Per-client-operation completion accounting, maintained by {!Runner}. *)

val run :
  Sample.plan ->
  faults:Fault.schedule option ->
  Tact_replica.System.t ->
  op_obs list ->
  string list
(** Every oracle the plan's checks enable, then O5 and O6 when the run has a
    fault schedule. *)

val check_converged : Tact_replica.Sharded.t -> string list
(** O3, interest-set-aware: within every shard all {e subscribed} replicas
    agree (vectors and databases) — replicas outside the interest set are
    exempt — and no shard's log holds a write whose conits route elsewhere
    ({!Tact_replica.Sharded.shard_leaks}; this half catches the
    {!Tact_replica.Mutation.Wrong_shard} planted routing bug).  Lines carry
    a [shard s:] prefix only when there is more than one shard. *)

val check_liveness : Tact_replica.Sharded.t -> op_obs list -> string list
(** O5: after the quiescent tail plus drain, every replica instance is up
    with no parked accesses, {!check_converged} holds, and every operation
    completed {e exactly} once — a result or a timeout, never neither,
    never both. *)

val check_unavailability :
  Tact_replica.Sharded.t ->
  schedule:Fault.schedule ->
  slack:float ->
  op_obs list ->
  string list
(** O6: every timeout must be attributable to a fault — its parked window
    [submit, deadline] must intersect [first event, quiet_after + slack],
    where only events whose footprint ({!Fault.disturbance_scope}) reaches
    a replica sharing a shard with the timed-out one (or a global knob)
    count: a fault confined to shards outside its interest set cannot have
    parked the access.  Sampled deadlines are generous enough that
    fault-free runs never time out, so an unexcused timeout is a
    bounds-machinery bug, not workload bad luck. *)
