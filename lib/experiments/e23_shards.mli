(** E23 — extension: sharded conit space with interest-set partial
    replication.

    Sweeps replica count x shard count x interest-set overlap (how many
    shards each replica subscribes to).  Conits are pinned round-robin
    across shards; Poisson write load per shard is submitted only at
    subscribed replicas, and the shard engines drain on a domain pool
    ({!Tact_replica.Sharded.run}) — parallel wall-clock speedup is measured
    separately by the bench's [shard_scaling] kernels.  Reports wire
    traffic, average shard membership, interest-set convergence
    ({!Tact_replica.Sharded.converged}) and the cross-shard containment
    audit.  Correctness bar: every point converges per interest set with
    zero leaks, and traffic falls as overlap narrows. *)

type row = {
  replicas : int;
  shards : int;
  overlap : int;
  writes : int;
  virtual_s : float;
  messages : int;
  bytes : int;
  avg_members : float;
  converged : bool;
  leaks : int;
}

val run_one :
  n:int -> shards:int -> overlap:int -> total:int -> jobs:int -> row
(** One sweep point, exposed for the smoke test and the bench. *)

val run : ?quick:bool -> unit -> string
