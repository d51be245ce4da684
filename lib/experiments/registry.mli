(** The experiment registry: every table/figure reproduction, indexed by the
    ids used in DESIGN.md and EXPERIMENTS.md. *)

type entry = {
  id : string;  (** e.g. "E3" *)
  name : string;  (** the bench-target name, e.g. "airline" *)
  paper_artifact : string;  (** which paper artifact it regenerates *)
  run : ?quick:bool -> unit -> string;
}

val all : entry list

val run_all : ?jobs:int -> ?quick:bool -> unit -> (entry * string) list
(** Run every experiment and pair it with its report, in registry order.
    They run on a [jobs]-domain {!Tact_util.Pool}, the caller included, so
    [jobs = 1] runs them one after another (each experiment is an
    independent simulation); the output order — and, since
    each simulation is internally deterministic, every simulated result —
    is the same at any job count.  (Reports that print measured host CPU
    time, e.g. E8's cpu-per-write column, vary between runs regardless of
    [jobs].) *)

val find : string -> entry option
(** Lookup by id (case-insensitive) or name. *)
