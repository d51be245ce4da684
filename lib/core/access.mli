(** Access records: everything the verification harness needs to check, after
    the fact, that an access was served within its declared bounds.

    Replicas emit one record per served access.  The omniscient checker (which
    sees every write accepted anywhere, with acceptance and return times)
    recomputes the true NE/OE/ST of each depended-on conit against the
    reference history and compares with the bounds — this is how integration
    tests establish that the protocols enforce the model. *)

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
      (** the replica's version vector at service time — identifies the
          observed prefix history *)
  observed_tentative : Tact_store.Write.id list Lazy.t;
      (** ids of the tentative suffix at service time, in local order.
          Lazy: replicas capture it as a {!Tact_store.Wlog.tentative_view},
          which shares one persistent id list across consecutive records, so
          a record costs O(1) amortised memory instead of a copy of the
          suffix; forcing it copies the suffix's ids once. *)
  observed_local : Tact_store.Write.id list Lazy.t;
      (** the full local history order at service time (committed prefix then
          tentative suffix) — input to the definitional order-error check.
          Lazy: replicas capture it as an O(1) cursor into the write log's
          append-only commit journal (plus the tentative ids); forcing it
          expands the cursor.  The expansion is stable — the journal is never
          truncated — so verification may force it long after the fact. *)
  observed_result : Tact_store.Value.t;
}

val depends_on : t -> string -> bool
val bound_for : t -> string -> Bounds.t option
