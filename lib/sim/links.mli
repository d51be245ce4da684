(** The link-fault model: what a fault schedule has done to the directed
    links of a system, and the fate of each message sent over them.

    One value holds every knob of the nemesis vocabulary (doc/FAULTS.md):
    the directed cut relation, global and per-link loss, duplication, and
    the delay and bandwidth factors.  {!Net} holds one for the simulator and
    {!Tact_transport.Faulty} holds one for a live process; both ask {!fate}
    once per message, so the two worlds draw the same decisions from the
    same knob seeds.  The module is pure: it owns no clock, schedules
    nothing and moves no bytes.

    Each stochastic knob carries its own seeded {!Tact_util.Prng}.  The draw
    order per message is fixed: no draw on a cut link; otherwise the global
    loss knob, then the link's loss knob (both drawn when installed, so one
    never shifts the other's stream); then, for a message not lost, the
    duplication knob, and a second duplication draw for the copy's extra
    delay when it fires. *)

type t

type knob = (Tact_util.Prng.t * float) option
(** A stochastic knob: its rng and its rate ([None] = off). *)

type fate =
  | Cut  (** the directed link is partitioned *)
  | Lost  (** a loss knob fired *)
  | Once  (** delivered *)
  | Twice of float
      (** delivered, plus a copy; the float in \[0, 1) stretches the copy's
          delay to [delay *. (1 + x)], so it arrives strictly later *)

val create : unit -> t
(** Every link up, no loss, no duplication, factors 1. *)

val fate : t -> src:int -> dst:int -> fate
(** Decide one message on the directed link [src -> dst], advancing the
    knobs' rngs in the order above. *)

val partition : t -> int list -> int list -> unit
(** Cut every link between the two groups, both directions. *)

val partition_oneway : t -> int list -> int list -> unit
(** Cut [a -> b] for every [a] in the first group and [b] in the second;
    [b]'s messages still reach [a]. *)

val heal_between : t -> int list -> int list -> unit
(** Remove any cut (either direction, however installed) between the two
    groups, leaving other cuts in place. *)

val heal : t -> unit
(** Remove every cut. *)

val partitioned : t -> int -> int -> bool
(** Is the directed link [a -> b] cut? *)

val set_loss : t -> knob -> unit
(** The global loss knob, drawn for every message on every uncut link. *)

val set_link_loss : t -> src:int -> dst:int -> knob -> unit
(** The loss knob of one directed link; a message is lost when either it or
    the global knob fires. *)

val set_duplication : t -> knob -> unit
(** With probability [rate], deliver each message that was not lost a
    second time, strictly later.  Protocol layers must be idempotent. *)

val set_delay_factor : t -> float -> unit
(** Scale every later message's delay (a spike when > 1; 1 is nominal). *)

val set_bandwidth_factor : t -> float -> unit
(** Scale the bandwidth later messages see (a squeeze when < 1; 1 is
    nominal).  Only the simulator models bandwidth; a live process keeps
    the factor and ignores it. *)

val delay_factor : t -> float
val bandwidth_factor : t -> float

val clear : t -> unit
(** Lift every disturbance: heal, loss and duplication off, factors 1. *)
