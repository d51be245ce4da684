(** DAG-encoded memory consistency models (Section 4.2's sketch for
    multiprocessor models).

    The ordering requirements a memory model imposes on a program form a DAG
    over instructions.  The paper's encoding: assign a conit to every edge;
    model each instruction as a write that affects the conits of its outgoing
    edges and depends (zero numerical error) on the conits of its incoming
    edges.  Enforcing zero error then makes every execution respect the DAG.

    This module realises the encoding over our replica substrate and provides
    an executor that runs a DAG-program with instructions submitted at
    arbitrary replicas, for the equivalence test of experiment E9. *)

type dag = { nodes : int; edges : (int * int) list }

val check : dag -> unit
(** Raises [Invalid_argument] on self-edges, out-of-range nodes or cycles. *)

val affects_of_node : dag -> int -> Tact_store.Write.weight list
val deps_of_node : dag -> int -> (string * Tact_core.Bounds.t) list

val submit :
  Tact_replica.Session.t -> dag:dag -> node:int -> op:Tact_store.Op.t ->
  k:(Tact_store.Op.outcome -> unit) -> unit

val execution_respects_dag : dag -> accept_order:int list -> bool
(** Given the global acceptance order of the nodes (each appearing once), is
    it a topological order of the DAG? *)
