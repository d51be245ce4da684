(** The per-peer connection supervisor: a pure state machine.

    {!Tcp} owns the sockets and clocks; this module owns the policy —
    connect deadlines, bounded retries with exponential backoff and
    decorrelated jitter, half-open detection, and the
    reconnect-implies-resync rule.  Purity is the point: the whole failure
    policy is table-testable with a seeded {!Tact_util.Prng} and hand-picked
    clocks (test/test_supervisor.ml), no sockets in sight. *)

type state =
  | Down of { attempt : int; prev_delay : float; until : float }
      (** waiting out a backoff delay; dial when [now >= until] *)
  | Dialing of { attempt : int; deadline : float; prev_delay : float }
  | Up of { last_rx : float; probed : bool }
      (** [probed]: a half-open probe is outstanding *)
  | Parked of { probe_at : float }
      (** retry budget exhausted — degrade gracefully, probe once per
          backoff cap.  The replica keeps serving within declared bounds;
          outgoing traffic to this peer is parked, not dropped. *)

type event =
  | Tick  (** time advanced (the caller's supervision timer) *)
  | Dial_ok
  | Dial_failed
  | Rx  (** bytes arrived from the peer *)
  | Io_failed  (** read/write error or deadline on the live connection *)

type action =
  | Dial
  | Hang_up
  | Send_probe  (** half-open check: an empty keepalive frame *)
  | Resync
      (** connection established — trigger a protocol resync pull; the
          peer's {!Tact_store.Batch.plan} picks delta vs snapshot *)

type knobs = {
  connect_timeout : float;
  backoff_base : float;
  backoff_cap : float;
  retry_limit : int;  (** 0 = unbounded *)
  half_open_after : float;
  io_timeout : float;
}

val knobs_of_config : Tact_replica.Config.transport_knobs -> knobs

val initial : state
(** [Down] with no delay: the first [Tick] dials immediately. *)

val step : knobs -> Tact_util.Prng.t -> state -> event -> now:float -> state * action list
(** One transition.  Total: stale events (a late failure for a connection
    already abandoned, a dial result while parked) are absorbed without
    action. *)

val is_up : state -> bool
val is_parked : state -> bool
val to_string : state -> string
