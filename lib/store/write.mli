(** Write records: an operation plus the conit weight specification.

    This is the unit that anti-entropy propagates between replicas (the paper
    propagates write {e procedures}, not written data: a procedure travels as
    an {!Op.Named} name and argument, and each replica runs it from its own
    copy of the system's procedure table).  [affects] is the
    per-write weight specification of Section 3.4: how the write bears on each
    conit's numerical value ([nweight]) and on order sensitivity
    ([oweight]). *)

type id = { origin : int; seq : int }

type weight = { conit : string; nweight : float; oweight : float }

type t = private {
  id : id;
  accept_time : float;
      (** wall-clock (simulated) time at which the originating replica
          accepted the write; the basis of staleness and of the canonical
          ECG order *)
  op : Op.t;
  affects : weight list;
  mutable size_cache : int;  (** lazily-computed wire size; use {!byte_size} *)
}

val make : id:id -> accept_time:float -> op:Op.t -> affects:weight list -> t

val compare_id : id -> id -> int
val id_to_string : id -> string

val ts_compare : t -> t -> int
(** Total order by (accept_time, origin, seq) — the canonical, external- and
    causal-order-compatible global order used both by the stability
    commitment protocol and as the reference ECG history. *)

val affects_conit : t -> string -> bool
(** A write affects a conit iff its nweight or oweight for it is non-zero
    (Section 3.2). *)

val nweight : t -> string -> float
val oweight : t -> string -> float

val total_oweight : t -> float
(** Sum of oweights across all affected conits (used when a single commitment
    order serves every conit). *)

val byte_size : t -> int
(** Exact size of the write's {!Codec} encoding, without materialising it.
    Memoized in the write on first use, so traffic-accounting folds that visit the same write
    many times pay the size computation once. *)

val to_string : t -> string
