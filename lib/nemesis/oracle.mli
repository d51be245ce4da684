(** The two nemesis-specific oracles, O5 and O6 (doc/FAULTS.md), layered on
    top of the reused O1-O4 from {!Tact_check.Oracle}. *)

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

val check_liveness :
  Tact_replica.System.t -> op_obs list -> string list
(** O5: after the quiescent tail plus drain, every replica is up with no
    parked accesses, all replicas converge (vectors and database images),
    and every operation completed {e exactly} once — a result or a timeout,
    never neither, never both. *)

val check_unavailability :
  schedule:Fault.schedule -> slack:float -> op_obs list -> string list
(** O6: every timeout must be attributable to a fault — its parked window
    [submit, deadline] must intersect the disturbance envelope
    [first event, quiet_after + slack].  Sampled deadlines are generous
    enough that fault-free runs never time out, so an unexcused timeout is a
    bounds-machinery bug, not workload bad luck. *)

val check_liveness_sharded :
  Tact_replica.Sharded.t -> op_obs list -> string list
(** O5 for sharded systems: up/parked checks per shard instance,
    convergence via the interest-set-aware O3
    ({!Tact_check.Oracle.check_converged_sharded}, including the cross-shard
    containment audit), completion accounting unchanged. *)

val check_unavailability_sharded :
  sh:Tact_replica.Sharded.t ->
  schedule:Fault.schedule ->
  slack:float ->
  op_obs list ->
  string list
(** O6, interest-set-aware: a timeout is excused only by a disturbance whose
    footprint ({!Fault.disturbance_scope}) reaches a replica sharing a shard
    with the timed-out one (or a global knob) — a fault confined to shards
    outside its interest set cannot have parked the access.  Strictly
    stronger than {!check_unavailability}. *)
