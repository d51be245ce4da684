(** Cluster consistency for mobile environments (Pitoura & Bhargava 1995) as
    a conit instance (Section 4.2).

    Data copies are partitioned into clusters; intra-cluster consistency is
    preserved while inter-cluster consistency may be violated.  Each cluster
    gets a conit; {e strict} operations depend on their cluster's conit with
    zero error, {e weak} operations carry no dependency.  "m-consistency"
    arises from a finite bound [m] instead of zero. *)

val conits : clusters:int -> Tact_core.Conit.t list

val strict_op :
  ?m:float -> Tact_replica.Session.t -> cluster:int -> op:Tact_store.Op.t ->
  k:(Tact_store.Op.outcome -> unit) -> unit
(** Affects and depends on the cluster conit; [m] relaxes the zero bound to
    m-consistency. *)

val weak_op :
  Tact_replica.Session.t -> cluster:int -> op:Tact_store.Op.t ->
  k:(Tact_store.Op.outcome -> unit) -> unit
(** Affects the cluster conit but requires nothing. *)
