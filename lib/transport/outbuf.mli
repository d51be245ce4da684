(** A non-blocking socket's unsent output: one byte array holding the
    pending bytes from a write offset on.  Appending copies each byte in
    once and a flush writes from the offset, so output queued behind a
    receiver that stopped reading costs copying linear in its size, not a
    copy of the whole backlog per flush. *)

type t

val create : int -> t
(** An empty buffer with the given initial capacity. *)

val length : t -> int
(** Bytes queued and not yet written. *)

val is_empty : t -> bool

val add_string : t -> string -> unit

val clear : t -> unit
(** Drop every queued byte (the connection went away). *)

val write : t -> Unix.file_descr -> int
(** Write as many queued bytes as the descriptor accepts now, drop them from
    the buffer and return their number.  Raises [Unix.Unix_error] as
    [Unix.write] does — [EAGAIN] when nothing could be written. *)
