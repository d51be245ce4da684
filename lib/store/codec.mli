(** Binary codec for the serialisable protocol types.

    A compact, self-describing binary format for values, operations, writes,
    version vectors and snapshots, with the exact-size accounting a real
    transport needs.  Every {!Op.t} encodes: write procedures travel as
    {!Op.Named} name-and-argument pairs, never as code.

    The format is length-prefixed and versioned; decoding a corrupt or
    truncated buffer raises {!Malformed}. *)

exception Malformed of string

(** {2 The frame allocator}

    A growable byte arena that encoders write into through reserved offsets.
    One frame is reused across an entire anti-entropy round (and across
    rounds, via {!Frame.clear}), so batch encoding performs one arena
    allocation per round — amortised zero once the arena reaches steady-state
    capacity — instead of one buffer per write.  Ownership rule: the arena is
    single-writer; {!Frame.contents} copies out an immutable string at the
    message boundary, after which the frame may be cleared and reused. *)

module Frame : sig
  type t = private {
    mutable buf : Bytes.t;
    mutable len : int;
    mutable allocs : int;
  }

  val create : ?initial:int -> unit -> t
  (** Fresh arena ([?initial] capacity, default 4096 bytes). *)

  val clear : t -> unit
  (** Reset length to zero, retaining capacity — the reuse entry point. *)

  val reserve : t -> int -> int
  (** [reserve t n] extends the frame by [n] bytes (growing the arena by
      doubling if needed) and returns the offset of the reserved span, which
      the caller fills in place.  The allocator-style zero-copy write path:
      callers with exact sizes (see {!Write.byte_size}) reserve once and
      encode directly into the arena. *)

  val preallocate : t -> int -> unit
  (** [preallocate t n] grows the arena (if needed) so the next [n] bytes of
      puts proceed without further allocation, without extending the frame.
      Callers with an exact arithmetic size bound a whole batch encode to at
      most one allocation. *)

  val length : t -> int
  (** Bytes written so far. *)

  val capacity : t -> int
  (** Current arena size in bytes. *)

  val allocations : t -> int
  (** Arena allocations since creation (1 + growth events) — the
      allocations-per-round bench metric. *)

  val contents : t -> string
  (** Copy the written span out as an immutable string. *)

  val blit_to : t -> dst:Bytes.t -> dst_off:int -> unit
  (** Copy the written span into an external buffer without an intermediate
      string. *)
end

(** {2 Frame-level encoders / cursor-based decoders} *)

type cursor = { data : string; mutable pos : int }

val cursor : string -> cursor

val put_u8 : Frame.t -> int -> unit
val put_int : Frame.t -> int -> unit
val put_float : Frame.t -> float -> unit
val put_string : Frame.t -> string -> unit
(** Length-prefixed. *)

val put_raw : Frame.t -> string -> unit
(** Bytes verbatim, no length prefix. *)

val check_items : cursor -> n:int -> min_size:int -> what:string -> unit
(** Validate a decoded element count against the bytes remaining in the
    cursor before allocating anything proportional to it ([min_size] is a
    lower bound on one element's encoded size); raises {!Malformed} on a
    negative or overrunning count.  Every count-prefixed decoder in this
    module and {!Batch} guards through this, so a corrupt count field can
    never balloon memory. *)

val get_u8 : cursor -> int
val get_int : cursor -> int
val get_float : cursor -> float
val get_string : cursor -> string

val encode_value : Frame.t -> Value.t -> unit
val decode_value : cursor -> Value.t

val encode_op : Frame.t -> Op.t -> unit
val decode_op : cursor -> Op.t

val encode_write : Frame.t -> Write.t -> unit

val decode_writes : cursor -> Write.t list
(** A count-prefixed sequence of writes, as batches and wire
    messages carry them.  A write whose weight list equals the previous
    write's shares that list, so a frame of writes with one weight
    specification holds it once. *)

val encode_vector : Frame.t -> Version_vector.t -> unit
val decode_vector : cursor -> Version_vector.t

val encode_snapshot : Frame.t -> Wlog.snapshot -> unit
val decode_snapshot : cursor -> Wlog.snapshot

(** {2 Arithmetic sizes}

    A value's encoded size is {!Value.wire_size}; an op's, {!Op.wire_size}. *)

val vector_byte_size : Version_vector.t -> int
(** Encoded size of a version vector without encoding it. *)

val snapshot_byte_size : Wlog.snapshot -> int
(** [String.length (snapshot_to_string snap)] without encoding — for wire-size
    accounting on every snapshot send without paying for serialisation. *)

(** {2 Whole-message helpers} *)

val to_string : (Frame.t -> 'a -> unit) -> 'a -> string
(** Run an encoder in a throwaway frame and return its contents. *)

val write_to_string : Write.t -> string
val write_of_string : string -> Write.t

val snapshot_to_string : Wlog.snapshot -> string
