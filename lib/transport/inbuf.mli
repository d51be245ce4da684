(** A non-blocking socket's unread input: one byte array holding the bytes
    read and not yet consumed, from a read offset on.  Taking a frame
    advances the offset; the unread tail moves to the front once per read,
    when no whole frame is left, so a read that delivers k frames costs
    copying linear in its size, not a copy of the tail per frame. *)

type t

val create : int -> t
(** An empty buffer with the given initial capacity. *)

val read : t -> Unix.file_descr -> int
(** Read what the descriptor holds now behind the unread bytes, doubling
    the buffer when it is full, and return the count ([0] at end of file).
    Raises [Unix.Unix_error] as [Unix.read] does. *)

val peek : t -> int -> string option
(** The first [n] unread bytes, without consuming them; [None] while fewer
    are buffered. *)

val drop : t -> int -> unit
(** Consume the first [n] unread bytes. *)

val clear : t -> unit
(** Discard every unread byte (the connection they came on is gone). *)

val next_frame : t -> max_frame:int -> (string option, Tact_store.Transport.error) result
(** Take the next length-prefixed frame ({!Tact_store.Transport}) and return
    its payload.  [Ok None] when no whole frame is buffered: the unread
    bytes then move to the front and the buffer grows to hold the announced
    frame.  [Error _] for an oversized or corrupt length prefix, which no
    stream can resynchronise after. *)
