(** Value-level call graph derived from {!Summary} reference adjacency.

    A node is one top-level definition (the module-toplevel pseudo-def is
    [""]); an edge [src -> dst] exists when [src]'s body references [dst].
    Every reference counts as a call edge — conservative, but it lets
    effect summaries flow through stdlib higher-order code
    ([List.iter bump xs] makes [bump] a callee) without closure analysis.
    Functions applied out of record fields or ref cells are not edges;
    Summary records those as escapes and the effect pass widens instead. *)

type node = { cg_dir : string; cg_mod : string; cg_def : string }

val key : node -> string
(** Stable unique key, ["dir//Mod//def"]. *)

val label : node -> string
(** Human label, ["lib/sim/Engine.dispatch"]; [""] renders as
    [(toplevel)]. *)

val compare_node : node -> node -> int

val target_node : Graph.t -> Summary.t -> Summary.vref -> node option
(** The definition a reference resolves to, when it names one in the
    loaded universe ([Self], or [Proj] into a loaded module).  A dotted
    path matches a definition exactly or by its last component.  [None]
    for locals, externals, bare module references, and paths that name a
    global or type rather than a definition. *)

val target_global :
  Graph.t -> Summary.t -> Summary.target ->
  (Summary.t * Summary.mutable_global) option
(** The non-[Sync] module-level mutable value a target names, with the
    summary of the module that defines it; same resolution as
    {!target_node}. *)

type t

val build : Graph.t -> t

val nodes : t -> node list
(** All nodes, sorted by {!key}. *)

val succs : t -> node -> (node * Location.t) list
(** Callees of a node with the location of the first referencing site,
    sorted by callee key.  [[]] for unknown nodes. *)

val mem : t -> node -> bool

val sccs : t -> node list list
(** Strongly connected components in bottom-up order: when an SCC appears,
    every SCC it can reach has already appeared (callees before callers),
    which is exactly the propagation order of the effect fixpoint. *)

val resolve_symbol : t -> string -> node list
(** Nodes matching a user-supplied name: full label
    (["lib/sim/Engine.dispatch"]), ["Module.def"], or bare ["def"]. *)

val dot : t -> string
(** Graphviz rendering of the whole graph, deterministic output. *)
