(** Epsilon-serializability (Pu & Leff 1991; Wu, Yu & Pu 1992) as a conit
    instance (the paper's Section 6 positions conits as strictly more general
    than ESR).

    ESR lets a query transaction tolerate a bounded amount of inconsistency
    {e imported} from concurrent update transactions, measured in the value
    domain.  The conit rendering: one conit per data item whose numerical
    weight is the magnitude of each update's change; an epsilon-query bounds
    the conit's absolute numerical error by its import limit.  Update
    transactions export inconsistency implicitly — the proactive budget
    protocol caps any replica's imported error at the declared epsilon, which
    is ESR's safety condition. *)

val conits : items:string list -> epsilon:float -> Tact_core.Conit.t list
(** Declare each item's conit with [ne_bound = epsilon] (the system-wide
    export cap). *)

val update :
  Tact_replica.Session.t -> item:string -> delta:float ->
  k:(Tact_store.Op.outcome -> unit) -> unit
(** An update transaction changing the item by [delta] (nweight |delta|). *)

val epsilon_query :
  Tact_replica.Session.t -> items:string list -> epsilon:float ->
  k:(float list -> unit) -> unit
(** A query transaction reading the items with import limit [epsilon] on
    each. *)
