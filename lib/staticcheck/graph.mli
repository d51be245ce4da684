(** The loaded summaries, indexed by (directory, module), and the
    module-level edges between them (one per referencing site, for the
    layering pass and for [tact_analyze --graph] dumps).  Value-level
    adjacency is {!Callgraph}'s. *)

type node = { n_dir : string; n_mod : string }

type edge = {
  e_src : node;
  e_dst : node;
  e_loc : Location.t;
  e_def : string;  (** the definition the reference sits in *)
}

type t

val build : Summary.t list -> t

val summaries : t -> Summary.t list
(** In load order (sorted by path). *)

val find : t -> dir:string -> modname:string -> Summary.t option

val module_edges : t -> edge list
(** One edge per distinct (src, dst) module pair, keeping the first
    referencing location; sorted. *)
