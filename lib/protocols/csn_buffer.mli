(** Commit-sequence-number bookkeeping for the primary commitment scheme.

    Under the primary scheme (Bayou-style), one replica assigns a global
    commit order by appending write ids to a growing sequence.  Other replicas
    learn contiguous slices of that sequence through transfers.  Because
    messages may be reordered in flight, a slice can arrive whose start index
    is beyond the locally known prefix; such slices are parked until the gap
    fills. *)

type t

val create : unit -> t

val known : t -> int
(** Length of the contiguous known prefix. *)

val append : t -> Tact_store.Write.id -> unit
(** Primary only: extend the order by one id. *)

val agrees : t -> start:int -> Tact_store.Write.id list -> bool
(** Whether a slice beginning at index [start] could merge: [start] is not
    negative and every entry it shares with the known prefix is equal. *)

val offer : t -> start:int -> Tact_store.Write.id list -> int
(** Merge a slice beginning at index [start].  Overlapping entries are
    skipped; a gapped slice is buffered.  A slice whose overlap disagrees
    with the known prefix, now or once the gap fills, is dropped whole.
    Returns how many slices (this one or buffered ones) were dropped. *)

val slice_from : t -> int -> Tact_store.Write.id list
(** The known suffix starting at the given index (for outbound transfers). *)

val get : t -> int -> Tact_store.Write.id
