(** The replica wire codec: every protocol message, actually serialisable.

    {!msg} is what a replica's transport endpoint carries.  The
    deterministic simulator passes the values as they are; a real transport
    ({!Tact_transport.Serve}) encodes them, and feeds incoming bytes back
    through {!Replica.deliver_wire}.  {!to_string} produces the payload a
    stream backend frames (4-byte length prefix, {!Tact_store.Transport}), and
    {!decode} is total over arbitrary bytes — hostile input returns
    [Error (Transport.Malformed _)], never raises, and never allocates
    proportionally to a corrupt count field.

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
      (** one {!Tact_store.Batch} frame, actually serialised *)

val encode : Codec.Frame.t -> msg -> unit
(** Append the message's encoding (own magic + version, distinct from
    {!Tact_store.Batch}) to an encode arena. *)

val to_string : msg -> string

val decode : string -> (msg, Transport.error) result
(** Total decode for untrusted input: corrupt, truncated, oversized-count or
    trailing-garbage buffers return [Error (Transport.Malformed _)] — never
    an exception, never an allocation proportional to a corrupt count. *)
