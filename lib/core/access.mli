(** Access records: everything the verification harness needs to check, after
    the fact, that an access was served within its declared bounds.

    Replicas emit one record per served access.  The omniscient checker (which
    sees every write accepted anywhere, with acceptance and return times)
    recomputes the true NE/OE/ST of each depended-on conit against the
    reference history and compares with the bounds — this is how integration
    tests establish that the protocols enforce the model.

    A record is plain data of a fixed shape: what the access observed is two
    vector copies taken at service time, not a copy of the history. *)

type kind =
  | Read
  | Write_access of Tact_store.Write.id

type dep = { conit : string; bound : Bounds.t }

type t = {
  kind : kind;
  replica : int;  (** originating replica *)
  submit_time : float;
  serve_time : float;
      (** when the replica served it: a read's evaluation instant, a write's
          acceptance instant (>= submit when the access blocked on bounds) *)
  return_time : float;
      (** when the result returned to the client; equals [serve_time] except
          for writes delayed by the numerical-error push protocol *)
  deps : dep list;
  observed_vector : Tact_store.Version_vector.t;
      (** a copy of the replica's version vector at service time —
          identifies the observed prefix history *)
  observed_committed : Tact_store.Version_vector.t;
      (** a copy of the replica's committed vector at service time.  With
          [observed_vector] it determines the local history the access saw:
          the writes both vectors cover form the committed prefix, in commit
          order, and the writes only [observed_vector] covers form the
          tentative suffix, in timestamp order.  {!Tact_replica.Verify}
          rebuilds both from the run's writes, so a record is plain data of
          a fixed shape. *)
  observed_result : Tact_store.Value.t;
}

val depends_on : t -> string -> bool
val bound_for : t -> string -> Bounds.t option
