(** Typed fault actions and timed schedules — the vocabulary of the nemesis
    DSL (doc/FAULTS.md).

    A {!schedule} is a list of timed disturbance events plus a [quiet_after]
    horizon.  Installing a schedule also installs an unconditional quiescent
    tail at [quiet_after] that lifts {e every} disturbance ({!clear}):
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
  quiet_after : float;  (** when {!clear} lifts every disturbance *)
}

val describe : action -> string

(** {2 Applying actions}

    One interpreter serves both worlds.  A {!target} is what one engine or
    one process can disturb: the {!Tact_sim.Links.t} its sends consult and
    the replicas it can crash.  A simulator shard's target holds its
    {!Tact_sim.Net}'s links ({!targets}); a live process's holds its
    {!Tact_transport.Faulty} decorator's links ({!Live.target}). *)

type target = {
  links : Tact_sim.Links.t;
  local : int array;
      (** indexed by a schedule's replica id: its id in [links]' numbering,
          or -1 when the replica is not reached through this target *)
  replicas : (int * Tact_replica.Replica.t) list;
      (** the replicas crash and recover reach, by schedule id *)
  link_salt : int;  (** added to a [Link_loss] salt *)
  knob_salt : int;  (** added to a [Global_loss] or [Duplication] salt *)
  emit : (Tact_store.Event.kind -> unit) option;
      (** where each step publishes its {!Tact_store.Event.Fault} *)
}

val apply : target -> action -> unit
(** Apply one action immediately: groups and ids are mapped through
    [local] (an id it does not map is dropped, and a group left empty makes
    the action a no-op), crash and
    recover reach only [replicas], and each stochastic action installs a
    fresh rng seeded by its salt plus the target's offset. *)

val clear : target -> unit
(** The quiescent tail: {!Tact_sim.Links.clear}, then recover every replica
    in [replicas]. *)

val targets : Tact_replica.Sharded.t -> target list
(** One target per shard: ids are projected onto the shard's subscribers
    and renumbered locally, and both salt offsets are the shard id (shard 0
    keeps the raw salt).  A plain system is passed as
    {!Tact_replica.Sharded.of_system}, whose one target is the unprojected
    system; its [emit] is {!Tact_replica.System.emit}. *)

val arm : at:(float -> (unit -> unit) -> unit) -> target -> schedule -> unit
(** Hand every event, then the quiescent tail ({!clear}) at [quiet_after],
    to [at time step].  Each step first publishes
    [Event.Fault { at; action = describe action }] through the target's
    [emit] (the tail's text is ["heal-all (quiescent tail)"]), then acts. *)

val install : Tact_replica.Sharded.t -> schedule -> unit
(** {!arm} every shard's target on that shard's engine, so fault events stay
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

val schedule_to_json : schedule -> Tact_util.Json.t
val schedule_of_json : Tact_util.Json.t -> schedule option
