(** Distributed games / virtual reality (Section 4.1).

    Entities move in a 2-D world; each entity's position is a conit whose
    numerical weight is the {e distance moved}, so a bound of [d] on the conit
    means an observer's view of the entity is within [d] world units of its
    true position (by the triangle inequality over unseen moves).

    The paper's point about focus and nimbus: different observers can ask for
    {e different} accuracy on the same entity — tight bounds for entities in
    one's focus (nearby), loose for peripheral ones — and self-determination
    means each observation pays only for its own accuracy. *)

val pos_conit : int -> string

val procs : Tact_store.Op.procs
(** The movement procedure, ["vworld.move"]; a system running {!move} must
    carry it in [Config.procs]. *)

val move :
  Tact_replica.Session.t -> entity:int -> dx:float -> dy:float ->
  k:(Tact_store.Op.outcome -> unit) -> unit
(** Displace the entity; affects its position conit with nweight = the
    Euclidean length of the move. *)

val position : Tact_store.Db.t -> entity:int -> float * float

type result = {
  moves : int;
  near_err : float;  (** mean true position error of in-focus observations *)
  far_err : float;  (** mean error of peripheral observations *)
  near_lat : float;  (** mean latency of in-focus observations (they pull) *)
  far_lat : float;  (** mean latency of peripheral observations (local) *)
  near_bound : float;
  far_bound : float;
  messages : int;
  bytes : int;
  violations : int;
}

val run :
  ?seed:int ->
  ?n:int ->  (* replicas; one avatar per replica *)
  ?move_rate:float ->
  ?observe_rate:float ->
  ?duration:float ->
  ?near_bound:float ->
  ?far_bound:float ->
  unit ->
  result
(** Avatars random-walk and observe each other: the avatar with the lowest id
    other than one's own is "in focus" (tight bound), the rest are peripheral
    (loose bound).  Errors are measured against the omniscient true
    positions. *)
