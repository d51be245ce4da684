(** Binary min-heap keyed by [(time, tiebreak)] — the timer queue of both
    clocks: the simulator's virtual-time engine and the live loop's
    wall-clock timers.  The integer tiebreak (insertion sequence) makes the
    order of simultaneous events deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val push : 'a t -> time:float -> seq:int -> 'a -> unit

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element, or [None] when empty. *)

val peek_time : 'a t -> float option

val iter : (time:float -> seq:int -> 'a -> unit) -> 'a t -> unit
(** Visit every queued element in unspecified (heap-internal) order. *)
