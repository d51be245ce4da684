(** Timed / delta consistency (Torres-Rojas et al.; Singla et al.) as a conit
    instance (Section 4.2): the effect of a write must be observable
    everywhere within [delta] seconds.

    Every write affects a single clock conit; a delta-consistent read simply
    bounds that conit's staleness by [delta].  (The original models are
    writer-driven; reader-driven staleness gives the same observable
    guarantee — no read ever misses a write older than [delta].) *)

val write :
  Tact_replica.Session.t ->
  op:Tact_store.Op.t ->
  k:(Tact_store.Op.outcome -> unit) ->
  unit

val read :
  Tact_replica.Session.t ->
  delta:float ->
  f:(Tact_store.Db.t -> Tact_store.Value.t) ->
  k:(Tact_store.Value.t -> unit) ->
  unit
