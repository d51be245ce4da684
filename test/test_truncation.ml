(* Log truncation and full-state snapshot transfer. *)

open Tact_sim
open Tact_store
open Tact_replica

let feq a b = Float.abs (a -. b) < 1e-9

let unit_w conit = { Write.conit; nweight = 1.0; oweight = 1.0 }

let mk ~origin ~seq ~t =
  Write.make ~id:{ origin; seq } ~accept_time:t
    ~op:(Op.Add ("x", 1.0))
    ~affects:[ unit_w "c" ]

let filled_log n =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  for seq = 1 to n do
    ignore (Wlog.accept log (mk ~origin:0 ~seq ~t:(float_of_int seq)))
  done;
  ignore (Wlog.commit_stable log ~cover:[| infinity; infinity |]);
  log

(* --- Wlog-level ------------------------------------------------------- *)

let test_truncate_basics () =
  let log = filled_log 10 in
  Alcotest.(check int) "retained before" 10 (Wlog.retained log);
  Alcotest.(check int) "dropped" 7 (Wlog.truncate log ~keep:3);
  Alcotest.(check int) "retained after" 3 (Wlog.retained log);
  Alcotest.(check int) "committed count unchanged" 10 (Wlog.committed_count log);
  Alcotest.(check bool) "db unchanged" true (feq (Db.get_float (Wlog.db log) "x") 10.0);
  Alcotest.(check int) "idempotent" 0 (Wlog.truncate log ~keep:3);
  (* Can still serve a peer that has the truncated prefix... *)
  let v = Version_vector.create 2 in
  Version_vector.set v 0 7;
  Alcotest.(check bool) "serveable peer" true (Wlog.can_serve log v);
  Alcotest.(check int) "diff size" 3 (List.length (Wlog.writes_since log v));
  (* ...but not one that is behind the truncation point. *)
  let behind = Version_vector.create 2 in
  Version_vector.set behind 0 2;
  Alcotest.(check bool) "unserveable peer" false (Wlog.can_serve log behind);
  Alcotest.(check bool) "writes_since refuses" true
    (try
       ignore (Wlog.writes_since log behind);
       false
     with Invalid_argument _ -> true)

let test_truncate_keeps_newest () =
  let log = filled_log 5 in
  ignore (Wlog.truncate log ~keep:2);
  let kept = List.map (fun (w : Write.t) -> w.Write.id.Write.seq) (Wlog.committed log) in
  Alcotest.(check (list int)) "newest kept in order" [ 4; 5 ] kept

let test_snapshot_roundtrip () =
  let src = filled_log 6 in
  ignore (Wlog.truncate src ~keep:1);
  let snap = Wlog.snapshot src in
  Alcotest.(check int) "snapshot count" 6 snap.Wlog.snap_ncommitted;
  (* A fresh replica installs it. *)
  let dst = Wlog.create ~replicas:2 ~initial:[] in
  Alcotest.(check bool) "installed" true (Wlog.install_snapshot dst snap);
  Alcotest.(check bool) "state adopted" true (feq (Db.get_float (Wlog.db dst) "x") 6.0);
  Alcotest.(check int) "committed adopted" 6 (Wlog.committed_count dst);
  Alcotest.(check bool) "conit value adopted" true (feq (Wlog.conit_value dst "c") 6.0);
  Alcotest.(check bool) "vector adopted" true
    (Version_vector.covers (Wlog.vector dst) ~origin:0 ~seq:6);
  (* Installing an older or equal snapshot is refused. *)
  Alcotest.(check bool) "stale snapshot refused" false (Wlog.install_snapshot dst snap)

let test_snapshot_preserves_local_tentative () =
  let src = filled_log 4 in
  let snap = Wlog.snapshot src in
  (* The destination has its own uncommitted write not covered by the
     snapshot. *)
  let dst = Wlog.create ~replicas:2 ~initial:[] in
  ignore (Wlog.insert dst (mk ~origin:1 ~seq:1 ~t:9.0));
  Alcotest.(check bool) "installed" true (Wlog.install_snapshot dst snap);
  Alcotest.(check bool) "local write replayed on top" true
    (feq (Db.get_float (Wlog.db dst) "x") 5.0);
  Alcotest.(check int) "still tentative" 1 (List.length (Wlog.tentative dst));
  Alcotest.(check bool) "oe preserved" true (feq (Wlog.tentative_oweight dst "c") 1.0);
  Alcotest.(check bool) "value = committed + tentative" true
    (feq (Wlog.conit_value dst "c") 5.0)

let test_snapshot_folds_covered_tentative () =
  let src = filled_log 4 in
  let snap = Wlog.snapshot src in
  (* The destination already holds, tentatively, two of the writes the
     snapshot commits. *)
  let dst = Wlog.create ~replicas:2 ~initial:[] in
  ignore (Wlog.insert dst (mk ~origin:0 ~seq:1 ~t:1.0));
  ignore (Wlog.insert dst (mk ~origin:0 ~seq:2 ~t:2.0));
  Alcotest.(check bool) "installed" true (Wlog.install_snapshot dst snap);
  Alcotest.(check int) "folded, not duplicated" 0 (List.length (Wlog.tentative dst));
  Alcotest.(check bool) "state is the snapshot's" true
    (feq (Db.get_float (Wlog.db dst) "x") 4.0);
  Alcotest.(check bool) "oe drained" true (feq (Wlog.tentative_oweight dst "c") 0.0)

(* --- System-level: rejoin via snapshot --------------------------------- *)

let test_rejoin_via_snapshot () =
  let topology = Topology.uniform ~n:3 ~latency:0.03 ~bandwidth:1_000_000.0 in
  (* Primary commitment keeps committing (and truncating) among the connected
     majority during the partition, so the disconnected replica genuinely
     falls behind the truncation point.  (Under stability commitment the
     partition stalls commitment system-wide and no snapshot is ever needed —
     that behaviour is covered by the replica suite.) *)
  let config =
    {
      Config.default with
      Config.commit_scheme = Config.Primary 0;
      antientropy_period = Some 0.5;
      truncate_keep = Some 5;
    }
  in
  let sys = System.create ~topology ~config () in
  let engine = System.engine sys in
  (* Replica 2 is partitioned from the start; 0 and 1 accumulate and commit
     (and truncate) 40 writes. *)
  Links.partition (Net.links (System.net sys)) [ 2 ] [ 0; 1 ];
  for k = 1 to 40 do
    Engine.schedule engine
      ~delay:(0.2 *. float_of_int k)
      (fun () ->
        Replica.submit_write (System.replica sys (k mod 2)) ~deps:[]
          ~affects:[ unit_w "c" ]
          ~op:(Op.Add ("x", 1.0))
          ~k:ignore)
  done;
  Engine.schedule engine ~delay:20.0 (fun () -> Links.heal (Net.links (System.net sys)));
  System.run ~until:120.0 sys;
  (* The writers truncated their logs... *)
  Alcotest.(check bool) "logs truncated" true
    (Wlog.retained (Replica.log (System.replica sys 0)) <= 5);
  (* ...so replica 2 must have caught up via a snapshot, and converged. *)
  let s = System.total_stats sys in
  Alcotest.(check bool) "snapshot transferred" true (s.Replica.snapshots_sent > 0);
  Alcotest.(check bool) "snapshot installed" true (s.Replica.snapshots_installed > 0);
  Alcotest.(check bool) "converged" true (System.converged sys);
  Alcotest.(check bool) "replica 2 sees all writes" true
    (feq (Db.get_float (Replica.db (System.replica sys 2)) "x") 40.0)

(* Convergence must also survive random message loss (ack-driven retransmit
   plus gossip recover everything). *)
let test_convergence_under_loss () =
  let topology = Topology.uniform ~n:3 ~latency:0.03 ~bandwidth:1_000_000.0 in
  let config = { Config.default with Config.antientropy_period = Some 0.5 } in
  let sys = System.create ~seed:7 ~loss:0.3 ~topology ~config () in
  let engine = System.engine sys in
  for k = 1 to 30 do
    Engine.schedule engine
      ~delay:(0.3 *. float_of_int k)
      (fun () ->
        Replica.submit_write (System.replica sys (k mod 3)) ~deps:[]
          ~affects:[ unit_w "c" ]
          ~op:(Op.Add ("x", 1.0))
          ~k:ignore)
  done;
  System.run ~until:300.0 sys;
  Alcotest.(check bool) "lossy network dropped messages" true
    ((System.traffic sys).Net.dropped > 0);
  Alcotest.(check bool) "converged despite loss" true (System.converged sys);
  Alcotest.(check bool) "all committed despite loss" true
    (Wlog.committed_count (Replica.log (System.replica sys 0)) = 30)

(* The definitional (LCP) order-error reading compares an access's local
   history with the ECG from the first write on, so the history an access
   records must keep the committed prefix that truncation dropped from the
   retained log.  The same OE-bounded workload verifies clean with and
   without truncation. *)
let lcp_violations ~truncate_keep =
  let topology = Topology.uniform ~n:3 ~latency:0.05 ~bandwidth:1e9 in
  let config =
    { Config.default with Config.antientropy_period = Some 0.2; truncate_keep }
  in
  let sys = System.create ~seed:3 ~jitter:0.1 ~topology ~config () in
  let engine = System.engine sys in
  let deps = [ ("c", Tact_core.Bounds.make ~oe:3.0 ()) ] in
  for k = 0 to 299 do
    let r = System.replica sys (k mod 3) in
    Engine.schedule engine
      ~delay:(0.05 *. float_of_int (k + 1))
      (fun () ->
        if k mod 2 = 0 then
          Replica.submit_write r ~deps ~affects:[ unit_w "c" ]
            ~op:(Op.Add ("x", 1.0)) ~k:ignore
        else Replica.submit_read r ~deps ~f:(fun db -> Db.get db "x") ~k:ignore)
  done;
  System.run ~until:60.0 sys;
  Alcotest.(check int) "every access recorded" 300
    (List.length (System.records sys));
  Alcotest.(check bool) "converged" true (System.converged sys);
  List.length (Verify.check ~lcp:true sys)

let test_lcp_reading_survives_truncation () =
  Alcotest.(check int) "untruncated run verifies" 0
    (lcp_violations ~truncate_keep:None);
  Alcotest.(check int) "truncated run verifies" 0
    (lcp_violations ~truncate_keep:(Some 10))

let suite =
  [
    Alcotest.test_case "truncate basics" `Quick test_truncate_basics;
    Alcotest.test_case "truncate keeps newest" `Quick test_truncate_keeps_newest;
    Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot preserves tentative" `Quick test_snapshot_preserves_local_tentative;
    Alcotest.test_case "snapshot folds covered tentative" `Quick test_snapshot_folds_covered_tentative;
    Alcotest.test_case "rejoin via snapshot" `Quick test_rejoin_via_snapshot;
    Alcotest.test_case "convergence under loss" `Quick test_convergence_under_loss;
    Alcotest.test_case "lcp reading survives truncation" `Quick
      test_lcp_reading_survives_truncation;
  ]
