(** Traffic monitoring and road reservation (Section 4.1).

    Each road section is a conit whose value is the number of vehicles in
    (or holding reservations for) it; every entry carries unit weight (the
    paper notes heavier vehicles can carry bigger weights — supported via
    [weight]).  Base stations (replicas) collect reservations from the
    vehicles near them; a driver picks the least-occupied of the candidate
    sections {e as observed} under a numerical-error bound, then reserves it
    with a write procedure that re-checks the section's capacity.  Stale
    occupancy views send everyone down the same "best" route — the
    over-crowding failure the paper motivates road reservation with. *)

val section_key : int -> string

val procs : Tact_store.Op.procs
(** The entry procedure, ["roads.enter"]; a system running
    {!reserve_section} must carry it in [Config.procs]. *)

val reserve_section :
  ?weight:float -> Tact_replica.Session.t -> section:int -> capacity:int ->
  k:(Tact_store.Op.outcome -> unit) -> unit
(** Reserve a slot in the section; conflicts when the section is full at
    application time. *)

type result = {
  trips : int;
  rejected : int;  (** reservations that conflicted (section full) *)
  mean_spread : float;
      (** time-averaged std-dev of true section occupancy — low spread means
          traffic actually spread across equivalent routes *)
  worst_overload : float;  (** max true occupancy observed on any section *)
  messages : int;
  violations : int;
}

val run :
  ?seed:int ->
  ?n:int ->  (* base stations *)
  ?sections:int ->  (* parallel, equivalent road sections *)
  ?capacity:int ->
  ?rate:float ->  (* trip starts per second per station *)
  ?trip_time:float ->
  ?duration:float ->
  ?ne_bound:float ->
  unit ->
  result
