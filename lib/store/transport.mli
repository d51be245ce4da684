(** The pluggable TRANSPORT seam (doc/TRANSPORT.md).

    Everything a replica's protocol machine needs from the world below it —
    a clock, timers and peer messaging — is captured by the {!endpoint}
    record.  Every replica runs against one: the deterministic simulator
    ({!Tact_replica.System} builds an endpoint over {!Tact_sim.Net} and the
    labelled engine) and the hardened TCP backend ({!Tact_transport.Serve}
    builds one over {!Tact_transport.Tcp}, encoding each message through
    {!Tact_replica.Wire}).  The same protocol code runs over both:
    model-checked against the first, deployed over the second.

    This module also owns the {e error taxonomy} every backend reports
    through, and the length-prefix framing helpers stream backends share.
    It deliberately knows nothing about [Unix]: real sockets live in
    [lib/transport], the only layer admitted to use them
    (analysis/layering.rules). *)

(** {2 Error taxonomy}

    Typed, total, and never raised across the seam: backend operations
    return [result]s, decoders return [Error (Malformed _)] on hostile
    input.  The taxonomy is deliberately small — every case maps to a
    distinct supervision decision (retry, reconnect, reject, drop). *)

type error =
  | Timeout of string  (** a connect/read/write deadline expired *)
  | Refused of string  (** the peer actively refused the connection *)
  | Closed of string  (** operation on a closed or draining endpoint *)
  | Reset of string  (** the connection died underneath an operation *)
  | Unreachable of string
      (** no route to the peer right now (parked traffic may heal it) *)
  | Malformed of string  (** bytes that do not decode under the wire format *)
  | Too_large of { limit : int; got : int }
      (** a frame larger than the negotiated bound — rejected before
          allocation, never buffered *)

val error_to_string : error -> string

val is_transient : error -> bool
(** Should a supervisor retry after this error?  [Timeout], [Refused],
    [Reset] and [Unreachable] are transient (the peer may heal); [Closed],
    [Malformed] and [Too_large] are not — retrying cannot fix them. *)

val decode_message :
  what:string -> magic:int -> version:int -> (Codec.cursor -> 'a) -> string ->
  ('a, error) result
(** Total decode of one message of a byte format: the first byte must be
    [magic], the second [version], the body decoder reads the rest and must
    consume every byte.  Whatever goes wrong — bad magic or version,
    truncation, a corrupt field ({!Codec.Malformed}), trailing bytes —
    comes back as [Error (Malformed _)] prefixed with [what], never as an
    exception.  Every decoder of untrusted bytes ({!Batch},
    {!Tact_replica.Wire}, {!Tact_transport.Client}) goes through this. *)

(** {2 The endpoint a replica runs against}

    A first-class record rather than a functor so one replica
    implementation serves every backend without refunctorisation.  The
    message type ['m] is the backend's choice of what crosses the seam:
    the simulator passes protocol values and models their size, a byte
    backend encodes them before they leave the process. *)

type 'm endpoint = {
  ep_now : unit -> float;
      (** seconds on the backend's clock (virtual or wall, backend's choice;
          only differences are meaningful) *)
  ep_schedule : tag:string -> delay:float -> (unit -> unit) -> unit;
      (** one-shot timer; [tag] is provenance for traces *)
  ep_every : tag:string -> period:float -> (unit -> bool) -> unit;
      (** periodic timer, runs while the thunk returns [true] *)
  ep_send : dst:int -> 'm -> (unit, error) result;
      (** hand one message to the backend.  [Ok] means {e accepted for
          delivery} (possibly parked behind a reconnect), not delivered —
          delivery guarantees stay with the protocol's own acknowledgement
          machinery.  Must never block the caller indefinitely and never
          raise: backpressure and peer failure surface as [Error]. *)
  ep_close : unit -> unit;  (** idempotent backend teardown *)
  ep_emit : (Event.t -> unit) option;
      (** the process's event sink, if anyone listens.  Producers test the
          option before building an event, so [None] costs one branch and
          no allocation per site. *)
}

(** {2 Length-prefix framing}

    Stream backends delimit wire messages with a 4-byte big-endian length
    prefix.  The helpers are pure string/byte manipulation so they can be
    unit-tested (and fuzzed) without a socket in sight. *)

val frame_header_size : int
(** 4 bytes. *)

val default_max_frame : int
(** 16 MiB — generous for snapshot frames, small enough that a corrupt
    length cannot balloon memory. *)

val encode_frame_header : len:int -> string
(** The 4-byte prefix for a payload of [len] bytes. *)

val put_frame : Codec.Frame.t -> string -> unit
(** Append header + payload to an encode arena. *)

val decode_frame_header :
  ?max_frame:int -> Bytes.t -> off:int -> avail:int -> (int option, error) result
(** Parse a length prefix out of a receive buffer: [Ok None] when fewer than
    {!frame_header_size} bytes are available, [Ok (Some len)] for a sane
    length, [Error] for a negative or over-[max_frame] length (the
    connection is poisoned — there is no way to resynchronise a stream after
    a corrupt prefix). *)
