(** Network topologies: pairwise latency and link bandwidth between
    replicas.

    The paper's evaluation ran replicas across wide-area links; here the link
    characteristics are explicit parameters.  Latency is one-way propagation
    delay in seconds; bandwidth is in bytes/second and is applied to the
    message size as a serialisation delay.  A topology is data, not a pair
    of functions: the latency of a pair is read off its shape. *)

type links =
  | Uniform of float
  | Clustered of { per_cluster : int; local : float; wan : float }
  | Star of float  (** hub 0, spoke latency *)
  | Matrix of float array array
  | Sub of { base : links; members : int array }
      (** node [i] is node [members.(i)] of [base] *)

type t = {
  n : int;  (** number of nodes, ids [0, n-1] *)
  links : links;
  bandwidth : float;  (** bandwidth of every link (bytes/s) *)
}

val latency : t -> int -> int -> float
(** One-way propagation delay (s) from the first node to the second.  Zero
    from a node to itself, except as a matrix says. *)

val uniform : n:int -> latency:float -> bandwidth:float -> t
(** Every pair of distinct nodes connected with the same characteristics.
    Models the paper's homogeneous wide-area setting (e.g. 40 ms, 1 MB/s). *)

val clustered :
  clusters:int -> per_cluster:int -> local:float -> wan:float -> bandwidth:float -> t
(** [clusters] groups of [per_cluster] nodes; intra-cluster latency [local],
    inter-cluster latency [wan].  Models LAN clusters joined by WAN links. *)

val star : n:int -> spoke:float -> bandwidth:float -> t
(** Node 0 is the hub; every other pair communicates via accumulated
    hub latency (2 * spoke).  Models a primary-site deployment. *)

val from_matrix : latency:float array array -> bandwidth:float -> t
(** Arbitrary latency matrix (must be square). *)

val sub : t -> int array -> t
(** [sub t members]: the topology among [members], renumbered 0..m-1, with
    the links they have in [t]. *)

val delay : t -> src:int -> dst:int -> size:int -> float
(** Total message delay: propagation + size/bandwidth.  Zero for src = dst. *)
