(** Logical write operations.

    Per the paper's system model (Section 2), writes are {e procedures}: they
    check for conflicts against the underlying database before updating it and
    may take an alternative action on conflict.  Because tentative writes can
    be rolled back and reapplied in a different order, the same operation may
    yield different outcomes across applications; the outcome under the final
    committed order is the write's {e actual} result. *)

type outcome =
  | Applied of Value.t  (** the write's return value *)
  | Conflict of string  (** the write procedure detected a conflict and took
                            its alternative action (a no-op plus this reason) *)

type t =
  | Noop
  | Set of string * Value.t
  | Add of string * float  (** numeric increment (negative = decrement) *)
  | Append of string * Value.t  (** add to the list at the key *)
  | Named of string * Value.t
      (** A write procedure, by name, applied to an argument: its body is
          looked up in the system's {!procs} table when the write is
          (re)applied.  Names and arguments are plain data, so every op
          crosses the wire (see {!Codec}). *)

type procs = (string * (Value.t -> Db.t -> outcome)) list
(** A system's write procedures: name → body.  The body inspects the
    database, decides whether the write conflicts, and if not performs its
    updates.  Every replica of a system holds the same table
    ([Config.procs]), exactly as deployed binaries would. *)

val apply : procs:procs -> t -> Db.t -> outcome
(** Execute the operation against the database image, mutating it.  A
    [Named] op whose name is not in [procs] changes nothing and yields
    [Conflict "unknown procedure \"name\""] — the same outcome at every
    replica, since they share one table. *)

val wire_size : t -> int
(** Exact encoded size under the {!Codec} wire format. *)

val describe : t -> string

val conflicted : outcome -> bool
val result : outcome -> Value.t
(** The return value; [Nil] for conflicts. *)
