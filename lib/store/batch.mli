(** Anti-entropy syncs in bytes.

    One sync carries the sender's rate estimate, the CSN slice and where it
    starts, the sender's vector and cover, and either a {e delta} (exactly
    the writes the receiver's vector proves it lacks) or a {e full} payload
    (committed snapshot plus the retained tail) when the sender has
    truncated below the receiver's vector.  Its kind says whether the
    receiver acknowledges it (a push), completes a pull round with it, or
    neither (gossip).

    This module is the only place a sync's fields are laid out in bytes
    (the {e sync body}).  A Batch frame — one per sync round per peer in
    Batched sync mode — is its magic, version, sender and shard followed by
    the body; {!Tact_replica.Wire} carries the same body behind its own
    envelope ({!encode_body}, {!decode_body}).

    Encoding goes through {!Codec.Frame}: the exact size is computed
    arithmetically ({!byte_size}, leaning on the memoized
    {!Write.byte_size}), preallocated in one step, and filled in place — one
    arena allocation per round, amortised zero once the arena reaches
    steady-state capacity.

    Frames are self-delimiting and idempotent to apply: every write, CSN
    entry and cover component the receiver already knows deduplicates, so a
    duplicated or re-delivered frame cannot double-apply. *)

val magic : int
(** The first byte of every Batch frame, distinct from every other
    envelope's so a decoder can dispatch on it. *)

type kind = Push | Pull_reply of int | Gossip

type payload =
  | Delta of Write.t list
  | Full of Wlog.snapshot * Write.t list
      (** snapshot + retained writes past its vector *)

type t = {
  from : int;
  shard : int;
      (** the shard whose log this frame carries — [0] when unsharded; a
          receiver serving a different shard must reject the frame *)
  kind : kind;
  vector : Version_vector.t;  (** sender's full vector at send time *)
  cover : float array;  (** sender's per-origin cover times *)
  csn_start : int;
  csn : Write.id list;
  rate : float;
  payload : payload;
}

val payload_writes : t -> Write.t list

val byte_size : t -> int
(** Exact encoded frame size without encoding (mirrors {!encode}; checked
    by tests). *)

val encode : Codec.Frame.t -> t -> unit
(** Append the frame's encoding to the arena, preallocating {!byte_size}
    bytes first so the encode performs at most one arena growth. *)

val to_string : t -> string

val decode : string -> (t, Transport.error) result
(** Total decode for untrusted input ({!Transport.decode_message}):
    corrupt, truncated, oversized-count or trailing-garbage frames return
    [Error (Transport.Malformed _)] — never an exception, and (via
    {!Codec.check_items}) never an allocation proportional to a corrupt
    count field. *)

(** {2 The sync body alone} *)

val encode_body : Codec.Frame.t -> t -> unit
(** Append the sync body only — no magic, version, sender or shard — after
    preallocating its exact size. *)

val decode_body : Codec.cursor -> from:int -> shard:int -> t
(** Read one sync body; the envelope around it supplies [from] and [shard].
    Raises {!Codec.Malformed} on corrupt input. *)

val plan :
  log:Wlog.t -> peer_vector:Version_vector.t -> (payload -> 'a) -> 'a
(** The batch planner: delta against [peer_vector] when the log can still
    serve it ({!Wlog.can_serve}), else a snapshot fallback carrying the
    committed image plus retained tail.  The continuation receives the chosen
    payload. *)
