(** Mutable database image: the state a replica exposes to reads.

    Each replica's write log keeps one image (see {!Wlog}): the committed
    prefix plus the applied part of the tentative suffix.  Rollback of
    tentative writes works by journalling each write's mutations as it is
    applied ({!recording}) and replaying the journal backwards ({!revert}) —
    so a rollback costs the size of the undone suffix, not of the whole
    image, and the committed image is the journals reverted on a copy. *)

type t

type undo
(** A journal of mutations, sufficient to revert them (opaque). *)

val no_undo : undo
(** The empty journal: reverting it changes nothing. *)

val create : (string * Value.t) list -> t
val copy : t -> t

val get : t -> string -> Value.t
(** Missing keys read as [Value.Nil]. *)

val set : t -> string -> Value.t -> unit

val get_float : t -> string -> float
val get_int : t -> string -> int

val add : t -> string -> float -> Value.t
(** Numeric increment; missing keys start at 0.  Returns the value stored. *)

val append : t -> string -> Value.t -> unit
(** Add to the list at [key]; missing keys start as [].  Lists are kept
    newest-first (constant-time add); readers see the most recent element at
    the head. *)

val keys : t -> string list

val equal : t -> t -> bool
(** Value equality of the two images (missing keys read as [Nil]);
    short-circuits on the first mismatch. *)

val size : t -> int

val recording : t -> (unit -> 'a) -> 'a * undo
(** Run the thunk with mutation journalling on, returning its result and the
    undo record for everything it changed.  Recordings do not nest. *)

val revert : t -> undo -> unit
(** Revert the mutations captured by a {!recording}.  Undo records must be
    reverted newest-recording-first to restore a past state. *)
