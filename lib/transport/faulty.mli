(** Fault injection at the real-network seam: a transport decorator that
    applies the nemesis disturbance vocabulary ({!Tact_check.Fault}) to live
    sockets instead of the simulator.

    The decorator wraps two injected closures — the underlying send and a
    timer — and holds one {!Tact_sim.Links.t}, the same link-fault state
    {!Tact_sim.Net} holds.  It asks {!Tact_sim.Links.fate} once per message
    for the directed link [self -> dst], so with the same knob seeds a live
    process and the simulator decide every message alike: cut, lost,
    delivered, or delivered twice.  It drops {e outgoing} traffic only,
    exactly like [Net.send] dropping on the directed link at send time: a
    symmetric cut installed on every process of a live system silences
    both directions.  The bandwidth factor has no live analog (the kernel
    owns the pipe) and is ignored. *)

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
    traffic.  With the default 0 baseline the decorator stays synchronous
    and bit-transparent whatever the factor. *)

val links : t -> Tact_sim.Links.t
(** The link-fault state {!send} consults; {!Tact_check.Fault.apply}
    programs it.  Ids are the system's replica ids. *)

val send : t -> dst:int -> string -> (unit, Tact_store.Transport.error) result
(** Apply the link's fate, then forward; a duplicate's copy follows after
    [delay * (1 + x) + 1 ms] for the fate's [x].  A dropped message still
    returns [Ok ()] — faults are silent, exactly as on a real network. *)

val stats : t -> stats
