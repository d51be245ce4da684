(* The invariant sanitizer: healthy structures audit clean, injected
   corruption is detected with a position, and a whole system runs clean in
   checking mode. *)

open Tact_sim
open Tact_store
open Tact_core
open Tact_replica
module Sanitize = Tact_util.Sanitize

let unit_w conit = { Write.conit; nweight = 1.0; oweight = 1.0 }

let mk ?(op = Op.Noop) ?(affects = [ unit_w "c" ]) ~origin ~seq ~t () =
  Write.make ~id:{ origin; seq } ~accept_time:t ~op ~affects

let with_sanitize f =
  Sanitize.set_enabled true;
  Fun.protect ~finally:Sanitize.clear_forced f

let mentions sub s =
  let n = String.length sub in
  let found = ref false in
  for k = 0 to String.length s - n do
    if String.sub s k n = sub then found := true
  done;
  !found

(* A log with four tentative writes from two origins and one committed. *)
let sample_log () =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  List.iter
    (fun (origin, seq, t) ->
      ignore (Wlog.accept log (mk ~op:(Op.Add ("x", 1.0)) ~origin ~seq ~t ())))
    [ (0, 1, 1.0); (1, 1, 1.5); (0, 2, 2.0); (1, 2, 2.5); (0, 3, 3.0) ];
  ignore (Wlog.commit_stable log ~cover:[| 1.2; 1.2 |]);
  log

let test_healthy_clean () =
  let log = sample_log () in
  Alcotest.(check (list string)) "no violations" [] (Wlog.invariant_violations log);
  with_sanitize (fun () -> Wlog.sanitize log)

let test_swap_detected () =
  let log = sample_log () in
  (* Swap two tentative entries: the suffix is no longer in ts order. *)
  Wlog.unsafe_swap_tentative log 0 2;
  let vs = Wlog.invariant_violations log in
  Alcotest.(check bool) "violations found" true (vs <> []);
  Alcotest.(check bool) "names a position" true
    (List.exists (mentions "out of order at positions") vs);
  with_sanitize (fun () ->
      match Wlog.sanitize ~ctx:"test" log with
      | () -> Alcotest.fail "sanitize accepted a corrupted log"
      | exception Sanitize.Violation msg ->
        Alcotest.(check bool) "carries the context" true (mentions "[test]" msg))

let test_disabled_is_noop () =
  let log = sample_log () in
  Wlog.unsafe_swap_tentative log 0 2;
  (* Off by default: sanitize must not audit, let alone raise. *)
  Sanitize.clear_forced ();
  if not (Sanitize.enabled ()) then Wlog.sanitize log

let test_db_corruption_detected () =
  let log = sample_log () in
  (* Bypass the log: plant a key no tentative write touches.  Undo records
     restore absolute prior values for the keys they cover, so only damage
     outside the journalled key set survives the revert — and the round-trip
     against the committed image catches exactly that. *)
  Db.set (Wlog.db log) "y" (Value.Float 999.0);
  let vs = Wlog.invariant_violations log in
  Alcotest.(check bool) "undo round-trip fails" true (vs <> [])

(* A log built under the sanitizer keeps its own committed image, so the
   undo round-trip is still audited once truncation or a snapshot install
   has dropped the committed prefix a replay would need. *)
let test_db_corruption_detected_truncated () =
  with_sanitize (fun () ->
      let log = sample_log () in
      Alcotest.(check int) "one truncated" 1 (Wlog.truncate log ~keep:0);
      Db.set (Wlog.db log) "y" (Value.Float 999.0);
      Alcotest.(check bool) "truncated log: undo round-trip fails" true
        (Wlog.invariant_violations log <> []);
      let fresh = Wlog.create ~replicas:2 ~initial:[] in
      Alcotest.(check bool) "installed" true
        (Wlog.install_snapshot fresh (Wlog.snapshot (sample_log ())));
      ignore (Wlog.accept fresh (mk ~op:(Op.Add ("x", 1.0)) ~origin:0 ~seq:2 ~t:4.0 ()));
      Alcotest.(check (list string)) "snapshotted log audits clean" []
        (Wlog.invariant_violations fresh);
      Db.set (Wlog.db fresh) "y" (Value.Float 999.0);
      Alcotest.(check bool) "snapshotted log: undo round-trip fails" true
        (Wlog.invariant_violations fresh <> []))

let test_system_runs_clean () =
  (* A small partitioned run with pushes, pulls, commits and healing — the
     sanitizer audits every replica after every step. *)
  with_sanitize (fun () ->
      let topology = Topology.uniform ~n:3 ~latency:0.02 ~bandwidth:1_000_000.0 in
      let config =
        {
          Config.default with
          Config.conits = [ Conit.declare ~ne_bound:3.0 "c" ];
          antientropy_period = Some 0.5;
        }
      in
      let sys = System.create ~seed:7 ~topology ~config () in
      let engine = System.engine sys in
      for i = 0 to 2 do
        let r = System.replica sys i in
        Tact_workload.Workload.staggered engine ~start:0.1 ~gap:0.3 ~count:20
          (fun k ->
            Replica.submit_write r ~deps:[]
              ~affects:[ unit_w "c" ]
              ~op:(Op.Add ("x", float_of_int ((k mod 3) + i)))
              ~k:ignore)
      done;
      Engine.at engine ~time:2.0 (fun () ->
          Links.partition (Net.links (System.net sys)) [ 0; 1 ] [ 2 ]);
      Engine.at engine ~time:4.0 (fun () -> Links.heal (Net.links (System.net sys)));
      System.run ~until:12.0 sys;
      (* And the explicit per-replica audit hook is callable. *)
      for i = 0 to 2 do
        Replica.sanity_check (System.replica sys i)
      done)

(* The sweep audit: no live parked access may fall due before the deadline
   sweep is armed to fire.  The interface offers no way to misarm the sweep,
   so the test moves it by hand: after one read parks with deadline 4.375,
   the replica holds exactly one boxed float of that value, the sweep time,
   and setting it later must trip the audit. *)
let test_sweep_audit () =
  let topology = Topology.uniform ~n:2 ~latency:0.02 ~bandwidth:1_000_000.0 in
  let config = { Config.default with Config.conits = [ Conit.declare "c" ] } in
  let sys = System.create ~topology ~config () in
  let r = System.replica sys 1 in
  Links.partition (Net.links (System.net sys)) [ 0 ] [ 1 ];
  Engine.at (System.engine sys) ~time:1.0 (fun () ->
      Replica.submit_read ~deadline:4.375 r ~deps:[ ("c", Bounds.strong) ]
        ~f:(fun db -> Db.get db "x")
        ~k:ignore);
  System.run ~until:2.0 sys;
  with_sanitize (fun () ->
      Replica.sanity_check r;
      let repr = Obj.repr r in
      let holds_deadline i =
        let f = Obj.field repr i in
        Obj.is_block f && Obj.tag f = Obj.double_tag
        && Float.equal (Obj.obj f : float) 4.375
      in
      match List.filter holds_deadline (List.init (Obj.size repr) Fun.id) with
      | [ i ] -> (
        Obj.set_field repr i (Obj.repr 9.0);
        match Replica.sanity_check r with
        | () -> Alcotest.fail "audit accepted a sweep armed past a deadline"
        | exception Sanitize.Violation msg ->
          Alcotest.(check bool) "names the sweep" true
            (mentions "precedes the sweep" msg))
      | l -> Alcotest.failf "%d fields hold the armed deadline" (List.length l))

(* The budget audit recounts each peer's outstanding weight from the budget
   window: replica 0 writes twice on a bounded conit while cut off, so both
   writes stay outstanding at each peer; a healthy replica audits clean, and
   one corrupted entry trips the audit, naming the peer and the conit. *)
let test_outstanding_audit () =
  let topology = Topology.uniform ~n:3 ~latency:0.02 ~bandwidth:1_000_000.0 in
  let config =
    { Config.default with Config.conits = [ Conit.declare ~ne_bound:8.0 "c" ] }
  in
  let sys = System.create ~topology ~config () in
  let r = System.replica sys 0 in
  Links.partition (Net.links (System.net sys)) [ 0 ] [ 1; 2 ];
  for _ = 1 to 2 do
    Replica.submit_write r ~deps:[] ~affects:[ unit_w "c" ] ~op:(Op.Add ("x", 1.0))
      ~k:ignore
  done;
  System.run ~until:1.0 sys;
  with_sanitize (fun () ->
      Replica.sanity_check r;
      Replica.unsafe_add_outstanding r ~peer:2 "c" 0.5;
      match Replica.sanity_check r with
      | () -> Alcotest.fail "audit accepted a corrupted outstanding entry"
      | exception Sanitize.Violation msg ->
        Alcotest.(check bool) "names the entry" true
          (mentions "outstanding.(2) for c is 2.5 but its window recounts 2" msg))

let suite =
  [
    Alcotest.test_case "healthy log audits clean" `Quick test_healthy_clean;
    Alcotest.test_case "tentative swap detected" `Quick test_swap_detected;
    Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "db corruption detected" `Quick test_db_corruption_detected;
    Alcotest.test_case "db corruption detected, truncated" `Quick
      test_db_corruption_detected_truncated;
    Alcotest.test_case "system runs clean under sanitizer" `Quick
      test_system_runs_clean;
    Alcotest.test_case "sweep armed past a deadline" `Quick test_sweep_audit;
    Alcotest.test_case "outstanding entry corruption" `Quick test_outstanding_audit;
  ]
