(** Typed fault actions and timed schedules — the vocabulary of the nemesis
    DSL (doc/FAULTS.md).

    A {!schedule} is a list of timed disturbance events plus a [quiet_after]
    horizon.  Installing a schedule also installs an unconditional quiescent
    tail at [quiet_after] that lifts {e every} disturbance ({!clear_all}):
    partitions heal, crashed replicas recover, loss/duplication/delay knobs
    reset.  The tail is not an event, so shrinking a failing schedule can
    drop disturbances but can never drop the heal — a run that only fails
    because the network never heals is not a counterexample.

    Stochastic actions (loss, duplication) carry their own rng seed
    ([salt]): the draw stream an action installs depends only on the action,
    so dropping neighbouring events during shrinking, or replaying the
    schedule from JSON, reproduces it exactly. *)

type action =
  | Cut of int list * int list  (** symmetric partition between two groups *)
  | Cut_oneway of int list * int list
      (** asymmetric: first group's messages to the second are dropped *)
  | Heal_between of int list * int list
  | Heal_all
  | Crash of int
  | Recover of int
  | Recover_all
  | Global_loss of { rate : float; salt : int }
      (** set the global loss knob (rate 0 disables) *)
  | Link_loss of { src : int; dst : int; rate : float; salt : int }
  | Duplication of { rate : float; salt : int }
  | Delay_factor of float  (** scale all message delays (1.0 = nominal) *)
  | Bandwidth_factor of float  (** scale link bandwidth (1.0 = nominal) *)

type event = { at : float; action : action }

type schedule = {
  events : event list;  (** disturbances, any order; [install] honours [at] *)
  quiet_after : float;  (** when {!clear_all} lifts every disturbance *)
}

val describe : action -> string

val apply : Tact_replica.Sharded.t -> action -> unit
(** Apply one action immediately.  Group and replica ids are projected onto
    each shard's subscribers (renumbered locally); global knobs hit every
    shard's net with the rng salt offset by the shard id (shard 0 keeps the
    raw salt).  A plain system is passed as {!Tact_replica.Sharded.of_system},
    on which this is the unprojected action. *)

val clear_all : Tact_replica.Sharded.t -> unit
(** Lift every disturbance: heal all partitions, recover all replicas, reset
    loss/duplication/delay/bandwidth knobs. *)

val fault_label : Tact_sim.Engine.label
(** Engine label ([actor = -1], tag ["fault"]) of installed fault events. *)

val install : Tact_replica.Sharded.t -> schedule -> unit
(** Schedule every event plus the quiescent tail on each shard's engine;
    each copy applies only that shard's projection, so fault events stay
    shard-local even when shards drain on different pool domains.  Call
    before running. *)

val disturbance_scope : action -> int list option
(** The replicas an action can disturb: [None] for heals and recoveries
    (never disturb), [Some []] for global knobs (everyone), [Some rs]
    otherwise.  Feeds the interest-set-aware O6
    ({!Oracle.check_unavailability}). *)

val validate : n:int -> schedule -> string list
(** Well-formedness errors: replica ids and groups in range, rates within
    [0, 1], factors positive, event times in [0, quiet_after). *)

val schedule_to_json : schedule -> Json.t
val schedule_of_json : Json.t -> schedule option
val event_to_json : event -> Json.t
val event_of_json : Json.t -> event option
