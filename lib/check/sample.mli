(** Plans — the workload, topology and configuration of one run — and their
    deterministic sampling for fault campaigns.

    A {!plan} is everything a run needs apart from its scheduler deviations,
    fault schedule and planted bug ({!Runner.spec}).  The checker's named
    scenarios ({!Scenario}) are hand-written plans with a choice phase;
    sampled plans are pure functions of their seed, so a counterexample only
    records the seed (plus the shrunk fault events) to replay exactly.
    Sampled plans stay inside the soundness envelope of the oracles: only
    absolute NE bounds under the Even budget policy (Theorem 1), reads
    requesting exactly the declared conit bounds (always satisfiable), and
    generous read deadlines so fault-free runs never time out. *)

type op_kind =
  | Write_op of { conit : string; nweight : float; oweight : float }
      (** [Op.Add (conit, nweight)] affecting [conit] with these weights *)
  | Read_op of { deps : (string * Tact_core.Bounds.t) list }
      (** returns the value of the first dependency's conit *)

type op = {
  op_rid : int;
  op_time : float;
  op_kind : op_kind;
  op_deadline : float option;  (** absolute *)
}

type checks = {
  bounds : bool;  (** O1: per-access NE/OE/ST bounds vs the ECG reference *)
  lcp : bool;
      (** O1 extension: also check the definitional (LCP) order-error reading
          — sound under stability commitment only *)
  committed_prefix : bool;
      (** O2: committed orders agree (pairwise prefix) across replicas *)
  ext_compat : bool;
      (** O2: longest committed order is external-order compatible
          (stability commitment only) *)
  causal_compat : bool;  (** O2: committed order is causal-order compatible *)
  converged : bool;  (** O3: quiesced replicas hold equal images *)
  theorem1 : bool;
      (** O4: every access's NE stays within the conit's declared system-wide
          bound (Theorem 1 self-determination) — enable only for absolute-NE
          conits under the Even budget policy, where the share argument is
          sound *)
}
(** The oracles that judge a run; O5 and O6 judge every run that has a
    fault schedule ({!Oracle.run}). *)

val all_checks : checks
(** Every flag on (adjust with [{ all_checks with ... }]). *)

type plan = {
  seed : int;  (** the system's seed *)
  n : int;
  topology : Tact_sim.Topology.t;
  jitter : float;
  config : Tact_replica.Config.t;
  ops : op list;
  checks : checks;
  choice_until : float option;
      (** [Some t]: the run has a choice phase up to virtual time [t], in
          which every dispatch is recorded and may be deviated
          ({!Runner}); [None]: default order throughout *)
  until : float;  (** the run ends at this virtual time *)
}

val draw : seed:int -> plan * Fault.schedule
(** The sampled plan for a seed — 2-4 replicas, sampled topology, conits,
    bounds and commit scheme, 8-24 client ops — with its fault schedule:
    1-3 composed disturbance fragments sized to the plan's horizon. *)
