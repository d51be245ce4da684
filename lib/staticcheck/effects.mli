(** Interprocedural effect & purity inference (SA050-SA064).

    Each definition gets a summary: the {!atom}s its body performs
    directly — external references classified by the
    [analysis/effects.rules] table, module-level mutations, higher-order
    escapes — plus everything reachable through the value-level call
    graph.  Propagation runs bottom-up over Tarjan SCCs (one pass per
    SCC); definitions containing a try-handler absorb the [Raises] atoms
    of their callees; `trust`ed directories contribute nothing and are
    not traversed.  Every finding carries the full root-to-culprit call
    chain. *)

type atom =
  | Wall_clock  (** [Unix.gettimeofday] and friends *)
  | Unseeded_random  (** global [Random] state *)
  | Hashtbl_iter
      (** iteration in [Hashtbl] order, unless the site carries a
          [lint: allow hashtbl-<fn>] annotation ({!hashtbl_key}) *)
  | Global_mutation of string
      (** touches the named non-[Sync] module-level mutable value (e.g.
          ["M.counter"] for a [ref] in module [M]); reads count — they
          are interleaving-dependent *)
  | Blocking of string  (** blocking call, e.g. ["Unix.read"] or
                            ["Mutex.lock"] *)
  | Raises of string  (** reaches ["failwith"] / ["raise"] unhandled *)
  | Domain_spawn
  | Widened of string
      (** ⊤: a function value applied out of a record field ([".body"])
          or ref cell (["!hook"]) — effects unknowable past this point *)

val compare_atom : atom -> atom -> int
val atom_label : atom -> string

module AtomSet : Set.S with type elt = atom

type rules
(** Parsed [analysis/effects.rules]. *)

val parse_rules : string -> (rules, string) result
(** Parse the rules text.  Directives: [atom <kind> <pat>...] with kinds
    [wall random hashtbl block raise domain], [pure <pat>...],
    [assume pure], [trust <dir>...], [root det <dir/Module>...].  Patterns
    match full dotted external paths ([Stdlib.] prefix stripped); a
    trailing [.*] matches the module and everything under it; the first
    matching entry wins; unmatched externals are assumed pure. *)

val classify : rules -> string -> atom option
(** The atom a dotted external path carries under the table ([None] when
    it is pure or unmatched). *)

val hashtbl_key : string -> string
(** The allow-annotation key for a Hashtbl-order path:
    [hashtbl_key "Hashtbl.to_seq_keys"] is ["hashtbl-to-seq-keys"]. *)

type eff

val infer : rules -> Graph.t -> Callgraph.t -> eff
(** Run the fixpoint over the loaded universe. *)

val judged : eff -> Summary.t list
(** The loaded modules outside the [trust]ed directories, in load order:
    the ones the rule families report on. *)

val summary_of : eff -> Callgraph.node -> AtomSet.t
(** Transitive effect summary of one definition (empty = pure). *)

val direct_of : eff -> Callgraph.node -> AtomSet.t
(** Atoms the definition's own body performs, before propagation. *)

val task_summary : eff -> Summary.t -> Summary.pool_site -> AtomSet.t
(** Transitive effects of a Pool task body: direct atoms of the task
    argument plus the summaries of everything it references; [Raises]
    dropped when the body carries its own handler. *)

val task_via : eff -> Summary.t -> Summary.pool_site -> atom -> string
(** How an atom of {!task_summary} enters the task: ["directly in the task
    body (line N)"], or ["via "] and the {!chain} from the first referenced
    definition that carries it. *)

val chain : eff -> Callgraph.node -> atom -> Callgraph.node list option
(** Shortest call chain from the node to a definition carrying the atom
    directly, moving only through nodes whose summary still contains it
    (a [Raises] chain cannot pass a handler).  [None] if unreachable. *)

val chain_text : Callgraph.node list -> string

val run : eff -> Report.finding list
(** All effect rule families: SA050-SA053 on `root det` modules,
    SA060-SA062 on Pool task bodies, SA063 on bin/ entrypoints, SA064 on
    [(* effects: pure *)] annotations.  Deduped, deterministic order. *)

val why : eff -> string -> string list
(** Human-readable dump for [--why <symbol>]: matching definitions with
    their direct and transitive atoms and one chain per atom. *)
