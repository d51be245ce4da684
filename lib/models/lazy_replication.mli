(** The three consistency levels of lazy replication (Ladin et al. 1992) as a
    conit instance (Section 4.2).

    - a {b causal} transaction is causally ordered with respect to all other
      causal transactions (the anti-entropy substrate already guarantees
      causal delivery, so no dependency is needed);
    - a {b forced} transaction is totally ordered with respect to all other
      forced transactions: it affects and depends (zero NE, zero OE) on the
      forced conit;
    - an {b immediate} transaction would be totally ordered with respect to
      {e all} transactions by affecting an immediate conit on which every
      transaction type depends with zero error.  Both levels above carry
      that dependency, but no immediate writer is exported: E09 exercises
      only the causal and forced levels. *)

val forced_conit : string

val conits : Tact_core.Conit.t list

val causal :
  Tact_replica.Session.t -> op:Tact_store.Op.t ->
  k:(Tact_store.Op.outcome -> unit) -> unit

val forced :
  Tact_replica.Session.t -> op:Tact_store.Op.t ->
  k:(Tact_store.Op.outcome -> unit) -> unit
