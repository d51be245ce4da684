(** Growable ring buffer: the indexed backing store for the write log.
    O(1) amortised [push_back]/[pop_front], O(log n) [upper_bound],
    O(distance-to-tail) mid insertion/removal.  The live range wraps round
    the end of the array, so a FIFO of steady length never copies and stops
    allocating once warm.  A full array grows by half; after removals, one
    past 64 slots and less than half full shrinks to a quarter above the
    live length, so memory stays within twice the live contents.

    Popped and removed elements are released: their slots are overwritten
    with the deque's [filler], so the deque never keeps a dead element
    reachable. *)

type 'a t

val create : filler:'a -> unit -> 'a t
(** [filler] occupies every slot outside the live range.  It is never
    returned; pass a static sentinel so a vacated slot pins nothing. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Logical index: 0 is the front element. *)

val set : 'a t -> int -> 'a -> unit
val push_back : 'a t -> 'a -> unit
val peek_front : 'a t -> 'a
val pop_front : 'a t -> 'a
val pop_back : 'a t -> 'a

val drop_front : 'a t -> int -> unit
(** Discard the first [n] elements (a fill of their slots, plus a shrink
    when the array is less than half full). *)

val insert : 'a t -> int -> 'a -> unit
(** Insert before logical index [i], shifting the tail side right. *)

val remove : 'a t -> int -> 'a
(** Remove and return the element at logical index [i]. *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
val to_list : 'a t -> 'a list

val upper_bound : 'a t -> cmp:('a -> 'a -> int) -> 'a -> int
(** Index of the first element comparing greater than the probe — the
    insertion point that keeps a [cmp]-sorted deque sorted.  The deque must
    be sorted by [cmp]. *)

(** {2 Capacity policy}

    The deque's sizing decisions as pure functions, for parallel arrays
    that keep the same ring layout (the write log's per-origin columns). *)

val wrap : cap:int -> int -> int
(** [wrap ~cap p] is the slot of ring position [p], for [0 <= p < 2 * cap]. *)

val grown : int -> int
(** The capacity a full ring of [len] elements grows to. *)

val shrunk : cap:int -> len:int -> int
(** The capacity a ring of capacity [cap] holding [len] elements shrinks to
    after removals: [cap] itself when it keeps its size. *)
