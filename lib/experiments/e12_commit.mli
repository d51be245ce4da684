(** E12 — ablation: stability vs primary write commitment (DESIGN.md
    design-choice index).

    Two axes are measured:

    - {b commit progress under partition}: a non-primary replica is
      disconnected for a window.  Stability commitment needs covers from
      {e every} origin, so commitment stalls system-wide until the partition
      heals; primary commitment keeps committing among the connected
      majority.
    - {b semantics}: the stability order is the canonical timestamp order
      (external-order compatible — 1SR+EXT at the strong extreme); the
      primary's arrival order is only 1SR.

    This is exactly the generality/practicality tension of the paper: the
    faster scheme buys availability with a weaker reference order. *)

type row = {
  scheme : string;
  committed_during_partition : int;
  committed_total : int;
  committed_at_end : int;
  writes : int;
  ext_compatible : bool;
  messages : int;
}

val commit_progress :
  node:int -> period:float -> until:float ->
  (Tact_store.Event.t -> unit) * (unit -> (float * float) list)
(** An event sink, and the series it feeds: replica [node]'s commit count
    (summed {!Tact_store.Event.Commit}s) at each multiple of [period] up to
    the first at or past [until] — E12's commit-progress plot. *)

val run : ?quick:bool -> unit -> string
