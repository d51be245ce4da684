(** The replica wire codec: every protocol message, actually serialisable.

    {!msg} is what a replica's transport endpoint carries.  The
    deterministic simulator passes the values as they are; a real transport
    ({!Tact_transport.Serve}) encodes them, and feeds incoming bytes back
    through {!Replica.deliver_wire}.  {!to_string} produces the payload a
    stream backend frames (4-byte length prefix, {!Tact_store.Transport}), and
    {!decode} is total over arbitrary bytes — hostile input returns
    [Error (Transport.Malformed _)], never raises, and never allocates
    proportionally to a corrupt count field.

    A [Batch_frame] crosses as the raw {!Tact_store.Batch} frame it holds.
    Every other message is this module's envelope (magic [0xA7], version,
    tag, sender) and its fields.  A [Transfer] or [Snapshot] is a sync: its
    fields are {!Tact_store.Batch}'s sync body, a [Snapshot] being a full
    sync that replies to pull round [round] and carries no CSN slice.
    {!decode} tells the two layouts apart by their first byte.

    Every message encodes: write procedures cross as
    {!Tact_store.Op.Named} name-and-argument pairs and are resolved against
    the receiving replica's procedure table. *)

open Tact_store

type msg =
  | Transfer of {
      from : int;
      writes : Write.t list;
      vector : Version_vector.t;  (** sender's full vector at send time *)
      cover : float array;  (** sender's per-origin cover times *)
      csn_start : int;
      csn : Write.id list;
      rate : float;  (** sender's write-rate estimate, for adaptive budgets *)
      kind : [ `Push | `Pull_reply of int | `Gossip ];
    }
  | Snapshot of {
      from : int;
      snap : Wlog.snapshot;
      writes : Write.t list;  (** retained writes past the snapshot *)
      vector : Version_vector.t;
      cover : float array;
      rate : float;
      round : int;  (** 0 when not a pull-round reply *)
    }
  | Pull_req of { from : int; vector : Version_vector.t; csn_known : int; round : int }
  | Ack of { from : int; vector : Version_vector.t; csn_known : int }
  | Batch_frame of string
      (** one {!Tact_store.Batch} frame, actually serialised; it crosses
          the wire as itself *)

val batch_kind : [ `Push | `Pull_reply of int | `Gossip ] -> Batch.kind
(** A [Transfer]'s kind as a sync's {!Tact_store.Batch.kind}. *)

val transfer_kind : Batch.kind -> [ `Push | `Pull_reply of int | `Gossip ]
(** The inverse of {!batch_kind}. *)

val encode : Codec.Frame.t -> msg -> unit
(** Append the message's encoding to an encode arena: the Batch frame
    verbatim, or the envelope (own magic, distinct from
    {!Tact_store.Batch}'s) and the message's fields. *)

val to_string : msg -> string

val decode : string -> (msg, Transport.error) result
(** Total decode for untrusted input: corrupt, truncated, oversized-count or
    trailing-garbage buffers, an unknown first byte, and a sync that no
    [Transfer] or [Snapshot] describes (a full payload with a CSN slice, or
    one that is not a pull reply) return [Error (Transport.Malformed _)] —
    never an exception, never an allocation proportional to a corrupt
    count.  A buffer that starts with Batch's magic comes back as
    [Batch_frame] undecoded: the receiving replica decodes it with
    {!Tact_store.Batch.decode} and checks its sender and shard. *)
