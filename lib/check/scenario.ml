open Tact_core
open Tact_replica
open Sample

type t = { name : string; summary : string; plan : Sample.plan }

(* ------------------------------------------------------------------ *)
(* Plan helpers.  All scenarios are jitter- and loss-free so a schedule is
   a pure function of the explorer's choices; the choice phase ends at
   [horizon] and the run drains under default order to [drain]. *)

let plan ~n ~horizon ~drain ~checks ~conits ~ae ~retry ?(commit = Config.Stability)
    ops =
  {
    seed = 7;
    n;
    topology = Tact_sim.Topology.uniform ~n ~latency:0.05 ~bandwidth:1e9;
    jitter = 0.0;
    config =
      {
        Config.default with
        Config.conits;
        commit_scheme = commit;
        antientropy_period = Some ae;
        retry_period = retry;
      };
    ops;
    checks;
    choice_until = Some horizon;
    until = drain;
  }

let write time rid conit nweight oweight =
  {
    op_rid = rid;
    op_time = time;
    op_kind = Write_op { conit; nweight; oweight };
    op_deadline = None;
  }

let read time rid deps =
  { op_rid = rid; op_time = time; op_kind = Read_op { deps }; op_deadline = None }

(* ------------------------------------------------------------------ *)
(* Named scenarios.  Deliberately tiny (2-3 replicas, 2 conits, a handful of
   client accesses): the state space must stay exhaustible within the smoke
   budget while still covering each enforcement mechanism. *)

let ne_budget =
  {
    name = "ne-budget";
    summary =
      "2 replicas, conits x/y with absolute NE bound 4; concurrent writes \
       overflow the per-writer budget and force pushes; NE-bounded reads";
    plan =
      plan ~n:2 ~horizon:0.9 ~drain:8.0
        ~checks:{ all_checks with lcp = false }
        ~conits:[ Conit.declare ~ne_bound:4.0 "x"; Conit.declare ~ne_bound:4.0 "y" ]
        ~ae:0.4 ~retry:0.6
        [
          write 0.05 0 "x" 1.5 1.0;
          write 0.10 1 "x" 1.5 1.0;
          write 0.18 0 "x" 1.5 1.0;
          write 0.25 1 "y" 1.0 1.0;
          read 0.45 0 [ ("x", Bounds.make ~ne:4.0 ()) ];
          read 0.55 1
            [ ("x", Bounds.make ~ne:4.0 ()); ("y", Bounds.make ~ne:4.0 ()) ];
        ];
  }

let oe_stability =
  {
    name = "oe-stability";
    summary =
      "2 replicas, stability commitment; order-bounded reads must wait for \
       the tentative suffix to commit (checked in both OE readings)";
    plan =
      plan ~n:2 ~horizon:0.9 ~drain:8.0
        ~checks:{ all_checks with theorem1 = false }
        ~conits:[ Conit.declare ~oe_bound:2.0 "x"; Conit.declare ~oe_bound:2.0 "y" ]
        ~ae:0.4 ~retry:0.6
        [
          write 0.05 0 "x" 1.0 1.0;
          write 0.12 1 "x" 1.0 1.0;
          write 0.20 0 "y" 1.0 1.0;
          read 0.50 1 [ ("x", Bounds.make ~oe:2.0 ()) ];
          read 0.60 0
            [ ("x", Bounds.make ~oe:2.0 ()); ("y", Bounds.make ~oe:2.0 ()) ];
        ];
  }

let primary_commit =
  {
    name = "primary-commit";
    summary =
      "3 replicas, primary (CSN) commitment at replica 0; committed prefixes \
       must agree system-wide and respect causal order (1SR, not EXT)";
    plan =
      plan ~n:3 ~horizon:0.8 ~drain:8.0
        ~checks:
          { all_checks with lcp = false; ext_compat = false; theorem1 = false }
        ~conits:[ Conit.declare ~oe_bound:2.0 "x"; Conit.declare ~oe_bound:2.0 "y" ]
        ~commit:(Config.Primary 0) ~ae:0.5 ~retry:0.6
        [
          write 0.05 1 "x" 1.0 1.0;
          write 0.10 2 "y" 1.0 1.0;
          write 0.18 1 "y" 1.0 1.0;
          read 0.55 1 [ ("x", Bounds.make ~oe:2.0 ()) ];
        ];
  }

let staleness =
  {
    name = "staleness";
    summary =
      "2 replicas; staleness-bounded reads force pulls from origins whose \
       cover times lag; checks the ST metric against the ECG reference";
    plan =
      plan ~n:2 ~horizon:1.0 ~drain:8.0
        ~checks:{ all_checks with lcp = false; theorem1 = false }
        ~conits:[ Conit.declare ~st_bound:0.8 "x"; Conit.declare ~st_bound:0.8 "y" ]
        ~ae:0.45 ~retry:0.5
        [
          write 0.05 0 "x" 1.0 1.0;
          write 0.15 1 "y" 1.0 1.0;
          read 0.70 1 [ ("x", Bounds.make ~st:0.8 ()) ];
          read 0.80 0 [ ("y", Bounds.make ~st:0.8 ()) ];
        ];
  }

let mixed =
  {
    name = "mixed";
    summary =
      "3 replicas, one NE-bounded conit and one OE-bounded conit; a read \
       depends on both regimes at once";
    plan =
      plan ~n:3 ~horizon:0.8 ~drain:8.0
        ~checks:{ all_checks with lcp = false }
        ~conits:[ Conit.declare ~ne_bound:3.0 "x"; Conit.declare ~oe_bound:1.0 "y" ]
        ~ae:0.4 ~retry:0.6
        [
          write 0.05 0 "x" 1.0 0.0;
          write 0.10 1 "y" 0.5 1.0;
          write 0.15 2 "x" 1.0 0.0;
          read 0.50 2
            [ ("x", Bounds.make ~ne:3.0 ()); ("y", Bounds.make ~oe:1.0 ()) ];
        ];
  }

let weak_converge =
  {
    name = "weak-converge";
    summary =
      "2 replicas, unconstrained conits: pure eventual consistency — every \
       interleaving must still converge and agree on the committed prefix";
    plan =
      plan ~n:2 ~horizon:0.6 ~drain:6.0
        ~checks:{ all_checks with bounds = false; lcp = false; theorem1 = false }
        ~conits:[ Conit.declare "x"; Conit.declare "y" ]
        ~ae:0.25 ~retry:0.5
        [
          write 0.05 0 "x" 1.0 1.0;
          write 0.08 1 "x" 2.0 1.0;
          write 0.12 1 "y" 1.0 1.0;
          read 0.30 0 [ ("x", Bounds.weak) ];
        ];
  }

let all =
  [ ne_budget; oe_stability; primary_commit; staleness; mixed; weak_converge ]

let find name = List.find_opt (fun s -> String.equal s.name name) all
