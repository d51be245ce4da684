(* The scenario DSL and the event-derived commit series. *)

open Tact_sim
open Tact_store
open Tact_replica
open Tact_workload

let feq a b = Float.abs (a -. b) < 1e-9

let system ?on_event () =
  System.create ?on_event
    ~topology:(Topology.uniform ~n:3 ~latency:0.03 ~bandwidth:1e6)
    ~config:
      {
        Config.default with
        Config.conits = [ Tact_core.Conit.declare "c" ];
        antientropy_period = Some 0.5;
      }
    ()

let test_scenario_happy_path () =
  let sys = system () in
  let results = ref [] in
  Scenario.run sys ~until:60.0
    [
      Scenario.at 1.0 (Scenario.write ~replica:0 ~conit:"c" (Op.Add ("x", 1.0)));
      Scenario.at 2.0 (Scenario.write ~replica:1 ~conit:"c" (Op.Add ("x", 1.0)));
      Scenario.at 5.0 (Scenario.strong_read ~replica:2 ~conit:"c" ~key:"x" results);
    ];
  (match !results with
  | [ (t, v) ] ->
    Alcotest.(check bool) "both writes seen" true (feq (Value.to_float v) 2.0);
    Alcotest.(check bool) "served promptly" true (t < 7.0)
  | _ -> Alcotest.fail "one read expected");
  Alcotest.(check bool) "no violations" true (Verify.check sys = [])

let test_scenario_fault_timeline () =
  let sys = system () in
  let results = ref [] in
  Scenario.run sys ~until:120.0
    [
      Scenario.at 1.0 (Scenario.write ~replica:0 ~conit:"c" (Op.Add ("x", 1.0)));
      Scenario.at 2.0 (Scenario.partition [ 2 ] [ 0; 1 ]);
      Scenario.at 3.0 (Scenario.strong_read ~replica:2 ~conit:"c" ~key:"x" results);
      Scenario.at 10.0 Scenario.heal;
      Scenario.at 12.0 (Scenario.crash 1);
      Scenario.at 15.0 (Scenario.recover 1);
    ];
  (match !results with
  | [ (t, v) ] ->
    Alcotest.(check bool) "read blocked across the partition" true (t > 10.0);
    Alcotest.(check bool) "read correct" true (feq (Value.to_float v) 1.0)
  | _ -> Alcotest.fail "one read expected");
  Alcotest.(check bool) "converged after faults" true (System.converged sys)

(* Replica 0's commit series, built from its Commit events the way E12
   builds its plot. *)
let test_monitor_series () =
  let on_event, progress =
    Tact_experiments.E12_commit.commit_progress ~node:0 ~period:1.0 ~until:20.0
  in
  let sys = system ~on_event () in
  Scenario.run sys ~until:40.0
    [
      Scenario.at 2.0 (Scenario.write ~replica:0 ~conit:"c" (Op.Add ("x", 1.0)));
      Scenario.at 8.0 (Scenario.write ~replica:1 ~conit:"c" (Op.Add ("x", 1.0)));
    ];
  let committed0 = progress () in
  Alcotest.(check bool) "sampled about 20 times" true (List.length committed0 >= 18);
  (* Chronological and monotone in committed count. *)
  let rec monotone = function
    | (t1, v1) :: ((t2, v2) :: _ as tl) -> t1 < t2 && v1 <= v2 && monotone tl
    | _ -> true
  in
  Alcotest.(check bool) "monotone commit series" true (monotone committed0);
  Alcotest.(check bool) "ends fully committed" true
    (match List.rev committed0 with (_, v) :: _ -> feq v 2.0 | [] -> false)

let suite =
  [
    Alcotest.test_case "scenario happy path" `Quick test_scenario_happy_path;
    Alcotest.test_case "scenario fault timeline" `Quick test_scenario_fault_timeline;
    Alcotest.test_case "monitor series" `Quick test_monitor_series;
  ]
