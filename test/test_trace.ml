(* The typed event stream: the simulator's replicas and a live daemon
   publish into one sink. *)

open Tact_store

let test_replica_integration () =
  let open Tact_sim in
  let open Tact_replica in
  let events = ref [] in
  let config = { Config.default with Config.antientropy_period = Some 0.5 } in
  let sys =
    System.create
      ~on_event:(fun e -> events := e :: !events)
      ~topology:(Topology.uniform ~n:2 ~latency:0.03 ~bandwidth:1e6)
      ~config ()
  in
  let engine = System.engine sys in
  Engine.schedule engine ~delay:0.1 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[]
        ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
        ~op:(Op.Add ("x", 1.0)) ~k:ignore);
  System.run ~until:30.0 sys;
  let saw f = List.exists (fun (e : Event.t) -> f e.Event.kind) !events in
  Alcotest.(check bool) "accept emitted" true
    (saw (function Event.Accept _ -> true | _ -> false));
  Alcotest.(check bool) "transfer emitted" true
    (saw (function Event.Transfer _ -> true | _ -> false));
  Alcotest.(check bool) "commit emitted" true
    (saw (function Event.Commit _ -> true | _ -> false))

(* Simulated faults publish the same events live ones do: each action's
   Fault.describe text, then the quiescent tail, in time order. *)
let test_sim_faults_publish () =
  let open Tact_sim in
  let open Tact_replica in
  let module Fault = Tact_check.Fault in
  let events = ref [] in
  let sys =
    System.create
      ~on_event:(fun e -> events := e :: !events)
      ~topology:(Topology.uniform ~n:3 ~latency:0.03 ~bandwidth:1e6)
      ~config:Config.default ()
  in
  let cut = Fault.Cut ([ 0 ], [ 1; 2 ]) and crash = Fault.Crash 2 in
  let sched =
    { Fault.events = [ { Fault.at = 2.0; action = crash }; { at = 1.0; action = cut } ];
      quiet_after = 3.0 }
  in
  Fault.install (Sharded.of_system sys) sched;
  System.run ~until:10.0 sys;
  let faults =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Fault { at; action } ->
          Alcotest.(check (float 0.0)) "stamped when it fires" at e.Event.time;
          Alcotest.(check int) "from the injector" (-1) e.Event.node;
          Some (at, action)
        | _ -> None)
      (List.rev !events)
  in
  Alcotest.(check (list (pair (float 0.0) string)))
    "each action, then the tail"
    [ (1.0, Fault.describe cut); (2.0, Fault.describe crash);
      (3.0, "heal-all (quiescent tail)") ]
    faults;
  Alcotest.(check bool) "tail recovered the crash" true
    (Replica.is_up (System.replica sys 2))

(* A live daemon's one sink: replica and connection events arrive through
   the same callback, on one clock, in time order. *)
let test_serve_one_sink () =
  let open Tact_transport in
  let events = ref [] (* newest first *) in
  let serves, _, pump_all =
    Test_transport.serve_fleet ~n:2 ~on_event:(fun e -> events := e :: !events) ()
  in
  Tact_replica.Replica.submit_write (Serve.replica serves.(0)) ~deps:[]
    ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
    ~op:(Op.Add ("x", 1.0)) ~k:ignore;
  let saw f () = List.exists (fun (e : Event.t) -> f e.Event.kind) !events in
  let accepted = saw (function Event.Accept _ -> true | _ -> false)
  and linked = saw (function Event.Link _ -> true | _ -> false)
  and greeted = saw (function Event.Hello _ -> true | _ -> false) in
  (* The peer's hello may still be in flight once the mesh is up. *)
  ignore (pump_all ~wall:5.0 greeted);
  Alcotest.(check bool) "replica events" true (accepted ());
  Alcotest.(check bool) "connection events" true (linked () && greeted ());
  Alcotest.(check bool) "all from daemon 0" true
    (List.for_all (fun (e : Event.t) -> e.Event.node = 0) !events);
  let rec nondecreasing = function
    | (a : Event.t) :: ((b : Event.t) :: _ as tl) ->
      a.Event.time >= b.Event.time && nondecreasing tl
    | _ -> true
  in
  Alcotest.(check bool) "time order" true (nondecreasing !events);
  Array.iter Serve.request_stop serves;
  Alcotest.(check bool) "drained" true
    (pump_all ~wall:6.0 (fun () -> Array.for_all Serve.stopped serves));
  Array.iter Serve.close serves

let suite =
  [
    Alcotest.test_case "replica integration" `Quick test_replica_integration;
    Alcotest.test_case "simulated faults publish" `Quick test_sim_faults_publish;
    Alcotest.test_case "serve: one sink in time order" `Quick test_serve_one_sink;
  ]
