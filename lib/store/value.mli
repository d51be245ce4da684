(** Database values.

    The replicated database maps string keys to these values.  The variants
    cover what the paper's sample applications need: numeric records (sensor
    readings, seat counts, server load), text (messages, paragraphs) and lists
    (bulletin boards, reservation manifests). *)

type t =
  | Nil
  | Int of int
  | Float of float
  | Str of string
  | List of t list

val equal : t -> t -> bool
val compare : t -> t -> int

val to_int : t -> int
(** [Nil] is 0; [Int]/[Float] convert; anything else raises [Invalid_argument]. *)

val to_float : t -> float
val to_list : t -> t list
(** [Nil] is []. *)

val to_string : t -> string
(** Human-readable rendering (not a serialisation format). *)

val wire_size : t -> int
(** Exact encoded size under the {!Codec} wire format — equals
    [String.length] of the encoding without materialising it. *)
