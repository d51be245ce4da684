(** Per-module summaries: a scope-aware walk of one parsetree.

    The walk resolves every value reference to a {!target} — tracking local
    bindings (so a shadowed name never reports), module aliases
    ([module S = Stdlib]), library wrapper prefixes ([Tact_util.Pool] and
    [open Tact_util]), nested modules, and the unqualified names an [open]
    of a project module brings in from its [.mli] (unless a local binding
    or own definition claims them); an open or alias of a project module
    is not itself a reference, what is used through it is.  It records the
    facts the downstream passes consume: module-level mutable state, Pool
    escape points with everything referenced or mutated inside the
    submitted task, and exact float (in)equalities. *)

type target =
  | Local  (** bound in an enclosing pattern / a shadowing definition *)
  | Self of string  (** a top-level value of this module (dotted if nested) *)
  | Proj of { p_dir : string; p_mod : string; p_path : string }
      (** another project module; [p_path] may be [""] (a bare module
          reference, e.g. an [include]) or dotted (["State.make"]) *)
  | Extern of string list
      (** unresolved / outside the project: stdlib, compiler-libs, or a
          module the loader has not seen.  The full dotted path, head
          first; a bare unbound value is a one-element list. *)

type vref = {
  r_target : target;
  r_loc : Location.t;
  r_def : string;  (** enclosing top-level definition, [""] at toplevel *)
}

type mutation = {
  mu_op : string;  (** [":="], ["<-"], ["incr"], ["Hashtbl.replace"], ... *)
  mu_name : string;  (** source name of the mutated identifier *)
  mu_target : target;
  mu_captured : bool;  (** bound outside the task closure but locally *)
  mu_def : string;  (** enclosing top-level definition *)
  mu_loc : Location.t;
}

type escape = {
  esc_def : string;  (** enclosing top-level definition *)
  esc_what : string;
      (** what was applied: [".field"] for a record-field function,
          ["!name"] for a function read out of a ref cell *)
  esc_loc : Location.t;
}
(** A higher-order escape: a function value fetched out of a mutable
    container and applied.  The effect fixpoint cannot resolve the callee,
    so the enclosing definition widens to ⊤ (SA053). *)

type pool_site = {
  ps_fn : string;  (** ["submit"], ["post"], ["map_list"] or ["map_array"] *)
  ps_def : string;  (** enclosing top-level definition *)
  ps_loc : Location.t;
  ps_refs : vref list;  (** references inside the task argument *)
  ps_mutations : mutation list;  (** mutations inside the task argument *)
  ps_escapes : escape list;  (** higher-order escapes inside the task *)
  ps_handles : bool;  (** the task body contains a try-handler *)
}

type mutable_global = {
  mg_name : string;  (** dotted when defined in a nested module *)
  mg_creator : string;  (** ["ref"], ["Hashtbl.create"], ... *)
  mg_sync : bool;  (** created through a [Sync.*] wrapper *)
  mg_loc : Location.t;
}

type float_eq = {
  fe_op : string;  (** ["="] or ["<>"] *)
  fe_def : string;
  fe_loc : Location.t;
}

type t = {
  sum_source : Loader.source;
  sum_defs : string list;  (** top-level value names, dotted when nested *)
  sum_def_lines : (string * int) list;
      (** definition name -> 1-based start line, in source order *)
  sum_globals : mutable_global list;
  sum_refs : vref list;  (** every non-local reference, in source order *)
  sum_mutations : mutation list;
      (** every [Self]/[Proj] non-[Sync] mutation in the module, whether or
          not it sits inside a pool task — the raw material for
          [Global_mutation] effect atoms *)
  sum_handlers : string list;
      (** definitions containing a [try] handler, sorted — these absorb
          the [Raises] atoms of their callees *)
  sum_escapes : escape list;  (** higher-order escapes, in source order *)
  sum_pool_sites : pool_site list;
  sum_float_eqs : float_eq list;
}

val of_source : Loader.t -> Loader.source -> t
(** Summarize one parsed source against the loaded universe (used for
    reference resolution).  A source that failed to parse yields an empty
    summary. *)

