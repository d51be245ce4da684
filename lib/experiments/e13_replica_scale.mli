(** E13 — scalability with the number of replicas.

    The bulletin-board workload (fixed per-replica post rate, NE bound 4,
    no gossip) runs at growing replica counts.  Expected shape: per-write
    protocol cost grows with N — the bound is split N−1 ways, so each
    writer's share shrinks and pushes fire more often — the fundamental
    wide-area scaling cost that motivates bounded inconsistency in the first
    place (Section 1). *)

val run : ?quick:bool -> unit -> string
