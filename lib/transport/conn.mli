(** One non-blocking, length-prefixed stream socket: the descriptor, its
    unread input, its unsent output and a closed flag.  Every socket call
    the daemon makes outside {!Loop}'s [select] is made here, so {!Tcp}'s
    peer links and {!Serve}'s client port share one byte path and keep only
    their protocols.

    Frames carry {!Tact_store.Transport}'s 4-byte length prefix.  Input is
    read behind an offset that taking a frame advances; the unread tail
    moves to the front once per read.  Output is written from an offset; an
    append slides the pending bytes to the front when they fill at most
    half the array and doubles it otherwise, so each byte is copied O(1)
    times however long a receiver stalls.

    End of file, I/O errors and a bad length prefix come back as values,
    never as [Unix.Unix_error], and each closes the connection before it is
    reported; later reads, frames and flushes of a closed one are no-ops. *)

type t

type failure =
  | Eof  (** the other end closed *)
  | Io of Unix.error  (** a read or a connect failed *)
  | Bad_prefix of Tact_store.Transport.error  (** oversized or corrupt *)

val listen : Loop.t -> Unix.sockaddr -> backlog:int -> (t -> unit) -> t
(** Bind and listen ([SO_REUSEADDR]); each readable wake-up accepts one
    connection, non-blocking with [TCP_NODELAY], and hands it to the
    callback.  Only {!close} applies to the listener.  Raises
    [Unix.Unix_error] if binding or listening fails, leaving nothing open. *)

val connect :
  Loop.t -> Unix.sockaddr -> on_connect:(t -> (unit, failure) result -> unit) -> t option
(** Start a non-blocking connect ([TCP_NODELAY] set); [None] if it failed
    at once.  The first writable wake-up reports the outcome to
    [on_connect], a failed connect already closed. *)

val of_fd : Loop.t -> Unix.file_descr -> t
(** Wrap a connected, non-blocking descriptor. *)

val on_readable : t -> (unit -> unit) -> unit

val read : t -> (bool, failure) result
(** One read of what the socket holds now; [Ok false] when nothing was. *)

val take : t -> int -> string option
(** Consume the first [n] unread bytes (a raw hello), once buffered. *)

val frames : t -> max_frame:int -> (string -> unit) -> (unit, failure) result
(** Hand each whole buffered frame's payload to the callback, in order; a
    callback that closes the connection does not stop the frames already
    read.  A prefix above [max_frame] is [Error (Bad_prefix _)]. *)

val add_raw : t -> string -> unit
(** Queue bytes verbatim (a raw hello). *)

val add_frame : t -> string -> unit
(** Queue the length prefix, then the payload. *)

val add_frame_of : t -> Tact_store.Codec.Frame.t -> unit
(** {!add_frame} of the arena's written span, copied straight from it. *)

val unsent : t -> int
(** Bytes queued and not yet written. *)

val flush : t -> resume:(unit -> unit) -> (int, Unix.error) result
(** Write what the socket takes now and return the count.  While bytes
    remain, writability is armed to run [resume]; after, it is cleared. *)

val close : t -> unit
(** Stop watching the descriptor and close it.  Idempotent. *)

val is_closed : t -> bool
