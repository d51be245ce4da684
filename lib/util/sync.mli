(** Small domain-safe shared-state primitives.

    Everything concurrency-flavoured in this codebase is meant to live in
    lib/util (tact_analyze's SA012 [external] rule enforces it); callers that need
    a shared counter, a guarded cell or a concurrent map during a parallel
    phase use these rather than touching [Atomic]/[Mutex] directly. *)

module Counter : sig
  type t

  val make : unit -> t
  val get : t -> int

  val incr : t -> int
  (** Atomically add one; returns the value {e before} the increment. *)
end

module Cell : sig
  (** A mutex-guarded box, for lossless read-modify-write of arbitrary
      values (no CAS retry loop, so ['a] needs no physical-equality
      discipline). *)

  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val update : 'a t -> ('a -> 'a) -> unit
end

module Map : sig
  (** A hash map under one mutex.  Its users touch it a few times per
      simulation run, so one lock does not contend. *)

  type ('k, 'v) t

  val create : int -> ('k, 'v) t
  (** [create size_hint]. *)

  val find_opt : ('k, 'v) t -> 'k -> 'v option

  val update : ('k, 'v) t -> 'k -> ('v option -> 'v option) -> unit
  (** Atomic per-key read-modify-write: [None] result removes the
      binding. *)

  val length : ('k, 'v) t -> int
end
