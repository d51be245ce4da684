(* Crash / recovery: durable log, volatile execution state. *)

open Tact_sim
open Tact_store
open Tact_core
open Tact_replica

let feq a b = Float.abs (a -. b) < 1e-9

let topo n = Topology.uniform ~n ~latency:0.03 ~bandwidth:1_000_000.0

let unit_w conit = { Write.conit; nweight = 1.0; oweight = 1.0 }

let test_crash_halts_processing () =
  let config = { Config.default with Config.antientropy_period = Some 0.5 } in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  Engine.schedule engine ~delay:0.1 (fun () -> Replica.crash (System.replica sys 1));
  Engine.schedule engine ~delay:1.0 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[] ~affects:[ unit_w "c" ]
        ~op:(Op.Add ("x", 1.0)) ~k:ignore);
  System.run ~until:20.0 sys;
  Alcotest.(check bool) "down replica learned nothing" true
    (Wlog.num_known (Replica.log (System.replica sys 1)) = 0);
  Alcotest.(check bool) "flag" false (Replica.is_up (System.replica sys 1))

let test_recovery_catches_up_and_converges () =
  let config = { Config.default with Config.antientropy_period = Some 0.5 } in
  let sys = System.create ~topology:(topo 3) ~config () in
  let engine = System.engine sys in
  Engine.schedule engine ~delay:0.1 (fun () -> Replica.crash (System.replica sys 2));
  for k = 1 to 10 do
    Engine.schedule engine
      ~delay:(0.5 *. float_of_int k)
      (fun () ->
        Replica.submit_write (System.replica sys (k mod 2)) ~deps:[]
          ~affects:[ unit_w "c" ]
          ~op:(Op.Add ("x", 1.0))
          ~k:ignore)
  done;
  (* While crashed, stability commitment stalls (same as a partition). *)
  Engine.schedule engine ~delay:8.0 (fun () ->
      Alcotest.(check int) "commitment stalled" 0
        (Wlog.committed_count (Replica.log (System.replica sys 0))));
  Engine.schedule engine ~delay:10.0 (fun () -> Replica.recover (System.replica sys 2));
  System.run ~until:90.0 sys;
  Alcotest.(check bool) "recovered replica caught up" true
    (feq (Db.get_float (Replica.db (System.replica sys 2)) "x") 10.0);
  Alcotest.(check bool) "converged" true (System.converged sys);
  Alcotest.(check int) "all committed after recovery" 10
    (Wlog.committed_count (Replica.log (System.replica sys 0)));
  Alcotest.(check int) "one crash counted" 1 (Replica.crash_count (System.replica sys 2))

let test_crash_abandons_parked_accesses () =
  let config = { Config.default with Config.conits = [ Conit.declare "c" ] } in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  Links.partition (Net.links (System.net sys)) [ 0 ] [ 1 ];
  let timed_out = ref false and served = ref false in
  Engine.schedule engine ~delay:1.0 (fun () ->
      Replica.submit_read
        ~on_timeout:(fun () -> timed_out := true)
        (System.replica sys 1)
        ~deps:[ ("c", Bounds.strong) ]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun _ -> served := true));
  Engine.schedule engine ~delay:2.0 (fun () -> Replica.crash (System.replica sys 1));
  System.run ~until:20.0 sys;
  Alcotest.(check bool) "parked access abandoned" true !timed_out;
  Alcotest.(check bool) "never served" false !served

let test_submit_to_crashed_fails_fast () =
  let sys = System.create ~topology:(topo 2) ~config:Config.default () in
  let engine = System.engine sys in
  Engine.schedule engine ~delay:0.1 (fun () -> Replica.crash (System.replica sys 0));
  let rejected = ref false and served = ref false in
  Engine.schedule engine ~delay:1.0 (fun () ->
      Replica.submit_read
        ~on_timeout:(fun () -> rejected := true)
        (System.replica sys 0) ~deps:[]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun _ -> served := true));
  System.run ~until:10.0 sys;
  Alcotest.(check bool) "rejected" true !rejected;
  Alcotest.(check bool) "not served" false !served

let test_durable_log_survives_crash () =
  (* Writes accepted before the crash are still in the log afterwards and
     propagate on recovery. *)
  let config = { Config.default with Config.antientropy_period = Some 0.5 } in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  (* Replica 1 accepts a write, crashes before any gossip, then recovers. *)
  Links.partition (Net.links (System.net sys)) [ 0 ] [ 1 ];
  Engine.schedule engine ~delay:0.1 (fun () ->
      Replica.submit_write (System.replica sys 1) ~deps:[] ~affects:[ unit_w "c" ]
        ~op:(Op.Add ("y", 1.0)) ~k:ignore);
  Engine.schedule engine ~delay:0.5 (fun () -> Replica.crash (System.replica sys 1));
  Engine.schedule engine ~delay:5.0 (fun () ->
      Links.heal (Net.links (System.net sys));
      Replica.recover (System.replica sys 1));
  System.run ~until:60.0 sys;
  Alcotest.(check bool) "write survived and propagated" true
    (feq (Db.get_float (Replica.db (System.replica sys 0)) "y") 1.0);
  Alcotest.(check bool) "converged" true (System.converged sys)

let test_inflight_transfer_discarded_on_crash () =
  (* A transfer already in flight when its target crashes must not mutate
     the target's state after recovery: delivery is bound to the crash epoch
     observed at send time.  Sequence (latency 0.03, jitter 0):
       0.10  write accepted at replica 0
       0.50  gossip tick: replica 0 sends the transfer (arrives ~0.53)
       0.51  replica 1 crashes; partition isolates it from everything else
       0.52  replica 1 recovers (recovery pulls are cut by the partition)
       0.53  the stale pre-crash transfer arrives at a live replica 1 *)
  let config = { Config.default with Config.antientropy_period = Some 0.5 } in
  let sys = System.create ~jitter:0.0 ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  Engine.schedule engine ~delay:0.1 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[] ~affects:[ unit_w "c" ]
        ~op:(Op.Add ("x", 1.0)) ~k:ignore);
  Engine.schedule engine ~delay:0.51 (fun () ->
      Replica.crash (System.replica sys 1);
      Links.partition (Net.links (System.net sys)) [ 0 ] [ 1 ]);
  Engine.schedule engine ~delay:0.52 (fun () -> Replica.recover (System.replica sys 1));
  System.run ~until:3.0 sys;
  Alcotest.(check bool) "recovered and isolated" true
    (Replica.is_up (System.replica sys 1));
  Alcotest.(check int) "stale in-flight transfer discarded" 0
    (Wlog.num_known (Replica.log (System.replica sys 1)))

let test_on_timeout_fires_exactly_once () =
  (* A parked access abandoned by a crash must not time out a second time
     when its original deadline later fires on the recovered replica. *)
  let config = { Config.default with Config.conits = [ Conit.declare "c" ] } in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  Links.partition (Net.links (System.net sys)) [ 0 ] [ 1 ];
  let timeouts = ref 0 and served = ref false in
  Engine.schedule engine ~delay:1.0 (fun () ->
      Replica.submit_read ~deadline:5.0
        ~on_timeout:(fun () -> incr timeouts)
        (System.replica sys 1)
        ~deps:[ ("c", Bounds.strong) ]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun _ -> served := true));
  Engine.schedule engine ~delay:2.0 (fun () -> Replica.crash (System.replica sys 1));
  Engine.schedule engine ~delay:3.0 (fun () -> Replica.recover (System.replica sys 1));
  Engine.schedule engine ~delay:6.0 (fun () -> Links.heal (Net.links (System.net sys)));
  System.run ~until:20.0 sys;
  Alcotest.(check int) "on_timeout fired exactly once" 1 !timeouts;
  Alcotest.(check bool) "never served" false !served

let suite =
  [
    Alcotest.test_case "crash halts processing" `Quick test_crash_halts_processing;
    Alcotest.test_case "recovery catches up" `Quick test_recovery_catches_up_and_converges;
    Alcotest.test_case "crash abandons parked accesses" `Quick test_crash_abandons_parked_accesses;
    Alcotest.test_case "submit to crashed fails fast" `Quick test_submit_to_crashed_fails_fast;
    Alcotest.test_case "durable log survives crash" `Quick test_durable_log_survives_crash;
    Alcotest.test_case "in-flight transfer discarded on crash" `Quick
      test_inflight_transfer_discarded_on_crash;
    Alcotest.test_case "on_timeout fires exactly once" `Quick
      test_on_timeout_fires_exactly_once;
  ]
