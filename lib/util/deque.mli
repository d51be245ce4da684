(** Growable array with a head offset: the indexed backing store for the
    write log.  O(1) amortised [push_back]/[pop_front], O(log n)
    [upper_bound], O(distance-to-tail) mid insertion/removal.  Front slack
    left by pops is reclaimed by sliding the live range left when a push
    finds no room at the back, so a FIFO of steady length stops allocating
    once warm.  The array shrinks only when it exceeds four times the live
    length (and 64 slots), keeping memory within a constant factor of the
    live contents.

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
    when the array exceeds four times what is left). *)

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
