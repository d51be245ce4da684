(** Fault injection at the real-network seam: a transport decorator that
    interprets the nemesis disturbance vocabulary ({!Tact_check.Fault})
    against live sockets instead of the simulator.

    The decorator wraps two injected closures — the underlying send and a
    timer — and owns the same knobs {!Tact_sim.Net} exposes: directed
    partitions, global and per-link loss, duplication, and a delay factor.
    It deliberately does {e not} depend on [lib/check] (the daemon maps
    {!Tact_check.Fault.action} values onto these setters), and it drops
    {e outgoing} traffic only, exactly like [Net.send] dropping on the
    directed link at send time: a symmetric cut installed on every process
    of a live system silences both directions.

    Determinism mirrors [Net] too: each installed stochastic knob carries
    its own seeded {!Tact_util.Prng} and advances exactly once per message,
    so a replayed schedule reproduces the same drop/duplicate pattern
    regardless of which other knobs are active. *)

type stats = {
  mutable f_sent : int;  (** messages passed through to the real send *)
  mutable f_dropped_cut : int;
  mutable f_dropped_loss : int;
  mutable f_duplicated : int;
  mutable f_delayed : int;  (** messages deferred by the delay knob *)
}

type t

val create :
  self:int ->
  n:int ->
  ?nominal_delay:float ->
  schedule:(delay:float -> (unit -> unit) -> unit) ->
  send:(dst:int -> string -> (unit, Tact_store.Transport.error) result) ->
  unit ->
  t
(** [schedule] defers a thunk (wire it to {!Loop.schedule}); [send] is the
    real backend (wire it to {!Tcp.send}).  [nominal_delay] (default 0) is
    the baseline one-way delay the delay factor scales: each message waits
    [nominal_delay * delay_factor] before hitting the real send, so a spike
    factor stretches live traffic the same way it stretches simulated
    traffic.  With the default 0 baseline only the factor's excess over 1
    matters when a nominal delay is later configured; factor 1 with
    baseline 0 keeps the decorator synchronous and bit-transparent. *)

val send : t -> dst:int -> string -> (unit, Tact_store.Transport.error) result
(** Apply the disturbances, then forward.  A dropped message still returns
    [Ok ()] — faults are silent, exactly as on a real network. *)

(** {2 The knobs — mirror of {!Tact_sim.Net}} *)

val partition : t -> int list -> int list -> unit
val partition_oneway : t -> int list -> int list -> unit
val heal_between : t -> int list -> int list -> unit
val heal : t -> unit
val partitioned : t -> dst:int -> bool
(** Is our directed link [self -> dst] currently cut? *)

val set_loss : t -> (Tact_util.Prng.t * float) option -> unit
val set_link_loss : t -> dst:int -> (Tact_util.Prng.t * float) option -> unit
val set_duplication : t -> (Tact_util.Prng.t * float) option -> unit
val set_delay_factor : t -> float -> unit

val clear_all : t -> unit
(** Lift every disturbance: heal, disable loss/duplication, factor 1. *)

val stats : t -> stats
