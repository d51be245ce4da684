(** Version vectors over a fixed replica population.

    Component [i] records the highest contiguous write sequence number seen
    from origin [i].  Anti-entropy ships, for each origin, the contiguous
    range of writes above the receiver's component — so version vectors
    summarise exactly which writes a replica knows. *)

type t

val create : int -> t
(** All components zero.  Sequence numbers start at 1. *)

val size : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit

val copy : t -> t
val merge_into : t -> t -> unit
(** [merge_into dst src]: pointwise max, in place. *)

val dominates : t -> t -> bool
(** [dominates a b] iff every component of [a] >= that of [b]. *)

val equal : t -> t -> bool

val covers : t -> origin:int -> seq:int -> bool
(** Does this vector include write [seq] from [origin]? *)

val total : t -> int
(** Sum of components = number of writes known. *)

val to_string : t -> string
