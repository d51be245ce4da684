(* Timelines of writes, reads and faults driven straight through the
   simulator's engine, and the event-derived commit series. *)

open Tact_sim
open Tact_store
open Tact_replica

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

(* Run [action] at virtual time [time]; actions at equal times run in the
   order they were scheduled. *)
let at sys time action =
  Engine.at (System.engine sys) ~time (fun () -> action sys)

let write ~replica op sys =
  Replica.submit_write (System.replica sys replica) ~deps:[]
    ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
    ~op ~k:ignore

(* A zero-error read of "x" on conit "c"; its (completion time, value) is
   appended to [results]. *)
let strong_read ~replica results sys =
  Replica.submit_read (System.replica sys replica)
    ~deps:[ ("c", Tact_core.Bounds.strong) ]
    ~f:(fun db -> Db.get db "x")
    ~k:(fun v -> results := !results @ [ (System.now sys, v) ])

let links sys = Net.links (System.net sys)

let test_scenario_happy_path () =
  let sys = system () in
  let results = ref [] in
  at sys 1.0 (write ~replica:0 (Op.Add ("x", 1.0)));
  at sys 2.0 (write ~replica:1 (Op.Add ("x", 1.0)));
  at sys 5.0 (strong_read ~replica:2 results);
  System.run ~until:60.0 sys;
  (match !results with
  | [ (t, v) ] ->
    Alcotest.(check bool) "both writes seen" true (feq (Value.to_float v) 2.0);
    Alcotest.(check bool) "served promptly" true (t < 7.0)
  | _ -> Alcotest.fail "one read expected");
  Alcotest.(check bool) "no violations" true (Verify.check sys = [])

let test_scenario_fault_timeline () =
  let sys = system () in
  let results = ref [] in
  at sys 1.0 (write ~replica:0 (Op.Add ("x", 1.0)));
  at sys 2.0 (fun sys -> Links.partition (links sys) [ 2 ] [ 0; 1 ]);
  at sys 3.0 (strong_read ~replica:2 results);
  at sys 10.0 (fun sys -> Links.heal (links sys));
  at sys 12.0 (fun sys -> Replica.crash (System.replica sys 1));
  at sys 15.0 (fun sys -> Replica.recover (System.replica sys 1));
  System.run ~until:120.0 sys;
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
  at sys 2.0 (write ~replica:0 (Op.Add ("x", 1.0)));
  at sys 8.0 (write ~replica:1 (Op.Add ("x", 1.0)));
  System.run ~until:40.0 sys;
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
