(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue.  All replica logic,
    client workloads and network deliveries run as events: closures scheduled
    at a virtual time.  Execution is single-threaded and deterministic —
    simultaneous events fire in scheduling order.

    This is the repo's substitute for the paper's wide-area testbed: "time"
    below is simulated wall-clock time, which is exactly the timebase in which
    the paper defines staleness and external order.

    {2 Choice points}

    Every queued event is a potential {e choice point}.  By default the engine
    dispatches in strict (time, insertion-seq) order; installing a scheduler
    strategy with {!set_scheduler} instead presents all pending events at each
    step and lets the strategy pick which fires next.  Firing an event later
    than its scheduled time models network/scheduling delay, so the clock
    advances to [max clock event_time] and never runs backwards.  This is the
    hook the systematic interleaving checker ([lib/check]) drives. *)

type t

type label = { actor : int; tag : string }
(** Provenance of an event, attached at scheduling time: [actor] is the
    replica id the event acts on (-1 when not replica-specific) and [tag] a
    short kind such as ["deliver"], ["gossip"], ["retry"], ["deadline"],
    ["client"].  Labels feed the checker's independence (commutativity)
    heuristic and make traces readable; they never affect execution. *)

type choice = {
  c_time : float;  (** virtual time the event was scheduled for *)
  c_seq : int;  (** unique insertion sequence number *)
  c_label : label option;
}

type scheduler = now:float -> choice array -> int
(** A strategy: given the current clock and the pending events sorted by
    (time, seq) — index 0 is the default-order choice — return the index of
    the event to dispatch next. *)

exception Runaway of int
(** Raised by {!run} when the [max_events] budget is reached, {e before}
    dispatching the next event (which stays queued, so a catching caller can
    resume).  Carries the number of events executed so far. *)

val create : unit -> t

val now : t -> float
(** Current virtual time, in seconds. *)

val schedule : ?label:label -> t -> delay:float -> (unit -> unit) -> unit
(** Run the thunk [delay] seconds from now.  [delay] must be >= 0. *)

val at : ?label:label -> t -> time:float -> (unit -> unit) -> unit
(** Run the thunk at absolute virtual [time] (>= now). *)

val every :
  ?label:label -> t -> period:float -> ?jitter:(unit -> float) ->
  (unit -> bool) -> unit
(** Periodic event: the thunk runs every [period] (+ optional jitter) seconds
    for as long as it returns [true].  The net delay [period + jitter ()] is
    clamped at 0, so a negative jitter draw larger than the period delays by
    nothing rather than tripping the negative-delay guard. *)

val set_scheduler : t -> scheduler option -> unit
(** Install ([Some]) or remove ([None]) a scheduler strategy.  Queued events
    carry over across the switch.  With a strategy installed, {!run} consults
    it at every dispatch; without one, strict (time, seq) order applies. *)

val pending_choices : t -> choice array
(** Snapshot of all queued events, sorted by (time, seq).  Purely
    observational. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the event queue.  Stops when the queue is empty or when every
    remaining event lies beyond [until] (the clock then advances to [until]).
    Raises {!Runaway} before dispatching event number [max_events + 1]. *)

val events_executed : t -> int
