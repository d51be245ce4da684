(** Minimal JSON values, printer and parser — just enough to serialize and
    replay counterexample traces and fault schedules, to write and read
    bench reports, and to print the static analyzer's findings and SARIF
    log, without pulling in a JSON dependency.

    Numbers are represented as floats (fine here: payloads are small
    integers, times, durations and strings).  The printer emits integral
    floats without a decimal point and everything else with 15 significant
    digits when those read back as the same float, else 17. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Render; [indent] (default true) pretty-prints with two-space indents. *)

val parse : string -> (t, string) result

(** {2 Accessors} — all return [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_int : t -> int option
(** Only succeeds on integral numbers. *)

val to_str : t -> string option
val to_list : t -> t list option
