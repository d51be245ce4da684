(** Airline reservation — the paper's Section 4.1 flagship for relative
    numerical error.

    One conit per flight whose value is the number of {e available} seats
    (declared initial value = capacity; every reservation carries nweight −1).
    A reservation is a write {e procedure}: the client picks a random seat
    that looks free in its replica's view, and the procedure re-checks the
    seat when (re)applied — taking it, or conflicting if a reservation
    ordered earlier already holds it.  The write's {e actual} result is its
    outcome under the final committed order, so a reservation that looked
    fine tentatively can turn out to have conflicted.

    Section 4.1 derives that for reservations aimed at uniformly random free
    seats, the probability a reservation conflicts with an unseen remote
    reservation equals the conit's relative numerical error — so bounding
    relative NE bounds the conflict rate.  Experiment E3 reproduces this:
    measured conflict rate should track the measured mean relative NE across
    the bound sweep. *)

val flight_key : int -> string

val procs : Tact_store.Op.procs
(** The reservation procedure, ["airline.reserve"]; a system running
    {!reserve} must carry it in [Config.procs]. *)

val reserve :
  Tact_replica.Session.t ->
  rng:Tact_util.Prng.t ->
  flight:int ->
  seats:int ->
  k:(Tact_store.Op.outcome -> unit) ->
  unit
(** Pick a random observed-free seat on [flight] and submit the
    reservation procedure.  [k] receives the {e tentative} outcome; the final
    outcome is determined at commit. *)

type result = {
  attempts : int;
  tentative_conflicts : int;  (** conflicts visible at acceptance *)
  final_conflicts : int;  (** conflicts under the committed order *)
  conflict_rate : float;  (** final conflicts / attempts *)
  mean_rel_ne : float;  (** measured relative NE at reservation time *)
  messages : int;
  bytes : int;
  mean_write_latency : float;
  violations : int;
}

val run :
  ?seed:int ->
  ?n:int ->
  ?flights:int ->
  ?seats:int ->
  ?rate:float ->  (* reservations/s per replica *)
  ?duration:float ->
  ?latency:float ->
  ?ne_rel:float ->  (* declared relative NE bound per flight conit *)
  unit ->
  result
