(** Streaming and batch descriptive statistics for experiment measurements. *)

type t
(** A streaming accumulator (Welford's algorithm): O(1) memory, numerically
    stable mean and variance, plus min/max and total. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : t -> float
val min : t -> float
val max : t -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]: linear-interpolation percentile of
    a batch.  Sorts a copy; [nan] when empty. *)

val median : float array -> float

