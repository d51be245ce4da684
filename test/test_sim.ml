(* Discrete-event engine, topology and network model. *)

open Tact_sim

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

(* --- engine --------------------------------------------------------- *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "temporal order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check bool) "clock advanced" true (feq (Engine.now e) 3.0)

let test_engine_simultaneous_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order preserved" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let fired = ref 0.0 in
  Engine.schedule e ~delay:1.0 (fun () ->
      Engine.schedule e ~delay:1.5 (fun () -> fired := Engine.now e));
  Engine.run e;
  Alcotest.(check bool) "nested event at 2.5" true (feq !fired 2.5)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> incr count)
  done;
  Engine.run ~until:5.5 e;
  Alcotest.(check int) "only five fired" 5 !count;
  Alcotest.(check bool) "clock at horizon" true (feq (Engine.now e) 5.5);
  Engine.run e;
  Alcotest.(check int) "remaining fire on resume" 10 !count

let test_engine_at_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () ->
      Alcotest.check_raises "past time"
        (Invalid_argument "Engine.at: time 0.5 is in the past (now 1)")
        (fun () -> Engine.at e ~time:0.5 ignore));
  Engine.run e

let test_engine_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) ignore)

let test_engine_every () =
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.every e ~period:1.0 (fun () ->
      incr ticks;
      !ticks < 5);
  Engine.run e;
  Alcotest.(check int) "five ticks" 5 !ticks;
  Alcotest.(check bool) "stopped at t=5" true (feq (Engine.now e) 5.0)

let test_engine_max_events () =
  let e = Engine.create () in
  let rec forever () = Engine.schedule e ~delay:1.0 forever in
  forever ();
  Alcotest.(check bool) "runaway guard" true
    (try
       Engine.run ~max_events:100 e;
       false
     with Engine.Runaway n -> n = 100);
  (* The guard fires before dispatch, so the offending event is still queued
     and the run can resume under a fresh budget. *)
  Alcotest.(check int) "raised before dispatch" 100 (Engine.events_executed e);
  Alcotest.(check bool) "resumable" true
    (try
       Engine.run ~max_events:150 e;
       false
     with Engine.Runaway n -> n = 150)

let test_engine_every_negative_jitter () =
  (* Regression: a jitter draw more negative than the period used to produce
     a net-negative delay and trip the Engine.schedule guard.  Now the delay
     clamps at zero, so the loop keeps ticking at time 0. *)
  let e = Engine.create () in
  let ticks = ref 0 in
  Engine.every e ~period:1.0
    ~jitter:(fun () -> -5.0)
    (fun () ->
      incr ticks;
      !ticks < 3);
  Engine.run e;
  Alcotest.(check int) "three ticks despite negative jitter" 3 !ticks;
  Alcotest.(check bool) "clamped delays keep clock at zero" true
    (feq (Engine.now e) 0.0)

(* --- topology ------------------------------------------------------- *)

let test_topology_uniform () =
  let t = Topology.uniform ~n:4 ~latency:0.05 ~bandwidth:1000.0 in
  Alcotest.(check bool) "self zero" true (feq (Topology.delay t ~src:1 ~dst:1 ~size:100) 0.0);
  (* 0.05 propagation + 100/1000 serialisation *)
  Alcotest.(check bool) "delay = latency + size/bw" true
    (feq (Topology.delay t ~src:0 ~dst:1 ~size:100) 0.15)

let test_topology_clustered () =
  let t = Topology.clustered ~clusters:2 ~per_cluster:2 ~local:0.001 ~wan:0.1 ~bandwidth:1e9 in
  Alcotest.(check int) "size" 4 t.Topology.n;
  Alcotest.(check bool) "intra cheap" true (Topology.latency t 0 1 < 0.01);
  Alcotest.(check bool) "inter expensive" true (Topology.latency t 0 2 > 0.05)

let test_topology_star () =
  let t = Topology.star ~n:4 ~spoke:0.02 ~bandwidth:1e9 in
  Alcotest.(check bool) "hub-spoke" true (feq (Topology.latency t 0 3) 0.02);
  Alcotest.(check bool) "spoke-spoke doubles" true (feq (Topology.latency t 1 3) 0.04)

let test_topology_matrix () =
  let m = [| [| 0.0; 0.5 |]; [| 0.25; 0.0 |] |] in
  let t = Topology.from_matrix ~latency:m ~bandwidth:1e9 in
  Alcotest.(check bool) "asymmetric ok" true
    (feq (Topology.latency t 0 1) 0.5 && feq (Topology.latency t 1 0) 0.25)

(* --- net ------------------------------------------------------------- *)

let test_net_delivery_and_stats () =
  let e = Engine.create () in
  let net = Net.create e (Topology.uniform ~n:2 ~latency:0.1 ~bandwidth:1e6) () in
  let got = ref nan in
  Net.send net ~src:0 ~dst:1 ~size:1000 (fun () -> got := Engine.now e);
  Engine.run e;
  Alcotest.(check bool) "delivered at latency+ser" true (feq !got 0.101);
  let s = Net.stats net in
  Alcotest.(check int) "1 message" 1 s.Net.messages;
  Alcotest.(check int) "1000 bytes" 1000 s.Net.bytes;
  Alcotest.(check int) "0 dropped" 0 s.Net.dropped

let test_net_partition_drops () =
  let e = Engine.create () in
  let net = Net.create e (Topology.uniform ~n:3 ~latency:0.1 ~bandwidth:1e6) () in
  Links.partition (Net.links net) [ 0 ] [ 1 ];
  let delivered = ref 0 in
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> incr delivered);
  Net.send net ~src:1 ~dst:0 ~size:10 (fun () -> incr delivered);
  Net.send net ~src:0 ~dst:2 ~size:10 (fun () -> incr delivered);
  Engine.run e;
  Alcotest.(check int) "only unpartitioned pair delivers" 1 !delivered;
  Alcotest.(check int) "two dropped" 2 (Net.stats net).Net.dropped;
  Links.heal (Net.links net);
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> incr delivered);
  Engine.run e;
  Alcotest.(check int) "healed" 2 !delivered

let test_net_jitter_bounded () =
  let e = Engine.create () in
  let rng = Tact_util.Prng.create ~seed:5 in
  let net =
    Net.create e (Topology.uniform ~n:2 ~latency:0.1 ~bandwidth:1e9)
      ~jitter:(rng, 0.5) ()
  in
  let times = ref [] in
  for _ = 1 to 50 do
    Net.send net ~src:0 ~dst:1 ~size:0 (fun () -> times := Engine.now e :: !times)
  done;
  Engine.run e;
  Alcotest.(check int) "all 50 delivered" 50 (List.length !times);
  List.iteri
    (fun i t ->
      if not (t >= 0.1 && t < 0.15) then
        Alcotest.failf "delivery %d at %g is outside [0.1, 0.15)" i t)
    (List.rev !times)

let test_net_reset_stats () =
  let e = Engine.create () in
  let net = Net.create e (Topology.uniform ~n:2 ~latency:0.1 ~bandwidth:1e6) () in
  Net.send net ~src:0 ~dst:1 ~size:10 ignore;
  Net.reset_stats net;
  Alcotest.(check int) "reset" 0 (Net.stats net).Net.messages

let base_suite =
  [
    Alcotest.test_case "engine temporal order" `Quick test_engine_runs_in_order;
    Alcotest.test_case "engine simultaneous fifo" `Quick test_engine_simultaneous_fifo;
    Alcotest.test_case "engine nested" `Quick test_engine_nested_scheduling;
    Alcotest.test_case "engine until/resume" `Quick test_engine_until;
    Alcotest.test_case "engine past rejected" `Quick test_engine_at_past_rejected;
    Alcotest.test_case "engine negative delay" `Quick test_engine_negative_delay_rejected;
    Alcotest.test_case "engine every" `Quick test_engine_every;
    Alcotest.test_case "engine runaway guard" `Quick test_engine_max_events;
    Alcotest.test_case "engine every negative jitter" `Quick
      test_engine_every_negative_jitter;
    Alcotest.test_case "topology uniform" `Quick test_topology_uniform;
    Alcotest.test_case "topology clustered" `Quick test_topology_clustered;
    Alcotest.test_case "topology star" `Quick test_topology_star;
    Alcotest.test_case "topology matrix" `Quick test_topology_matrix;
    Alcotest.test_case "net delivery+stats" `Quick test_net_delivery_and_stats;
    Alcotest.test_case "net partition" `Quick test_net_partition_drops;
    Alcotest.test_case "net jitter bounded" `Quick test_net_jitter_bounded;
    Alcotest.test_case "net reset stats" `Quick test_net_reset_stats;
  ]

let test_traffic_where () =
  let e = Engine.create () in
  let net = Net.create e (Topology.uniform ~n:3 ~latency:0.01 ~bandwidth:1e9) () in
  Net.send net ~src:0 ~dst:1 ~size:100 ignore;
  Net.send net ~src:1 ~dst:2 ~size:50 ignore;
  Net.send net ~src:2 ~dst:0 ~size:25 ignore;
  Engine.run e;
  let from0 = Net.traffic_where net (fun ~src ~dst -> ignore dst; src = 0) in
  Alcotest.(check int) "from 0: 1 msg" 1 from0.Net.messages;
  Alcotest.(check int) "from 0: 100 bytes" 100 from0.Net.bytes;
  let all = Net.traffic_where net (fun ~src:_ ~dst:_ -> true) in
  Alcotest.(check int) "split sums to total" (Net.stats net).Net.bytes all.Net.bytes

let traffic_suite =
  [ Alcotest.test_case "traffic_where split" `Quick test_traffic_where ]

(* --- fault primitives (nemesis substrate) ----------------------------- *)

let test_net_oneway_partition () =
  let e = Engine.create () in
  let net = Net.create e (Topology.uniform ~n:2 ~latency:0.01 ~bandwidth:1e9) () in
  Links.partition_oneway (Net.links net) [ 0 ] [ 1 ];
  let fwd = ref 0 and back = ref 0 in
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> incr fwd);
  Net.send net ~src:1 ~dst:0 ~size:10 (fun () -> incr back);
  Engine.run e;
  Alcotest.(check int) "forward dropped" 0 !fwd;
  Alcotest.(check int) "reverse flows" 1 !back;
  Links.heal_between (Net.links net) [ 0 ] [ 1 ];
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> incr fwd);
  Engine.run e;
  Alcotest.(check int) "healed forward" 1 !fwd

let test_net_heal_between_targeted () =
  let e = Engine.create () in
  let net = Net.create e (Topology.uniform ~n:3 ~latency:0.01 ~bandwidth:1e9) () in
  Links.partition (Net.links net) [ 0 ] [ 1 ];
  Links.partition (Net.links net) [ 0 ] [ 2 ];
  Links.heal_between (Net.links net) [ 0 ] [ 1 ];
  Alcotest.(check bool) "0-1 healed" false (Links.partitioned (Net.links net) 0 1);
  Alcotest.(check bool) "1-0 healed" false (Links.partitioned (Net.links net) 1 0);
  Alcotest.(check bool) "0-2 still cut" true (Links.partitioned (Net.links net) 0 2);
  Links.heal (Net.links net);
  Alcotest.(check bool) "heal-all clears the rest" false (Links.partitioned (Net.links net) 0 2)

let test_net_drop_accounting () =
  let e = Engine.create () in
  let net = Net.create e (Topology.uniform ~n:2 ~latency:0.01 ~bandwidth:1e9) () in
  Links.partition (Net.links net) [ 0 ] [ 1 ];
  Net.send net ~src:0 ~dst:1 ~size:10 ignore;
  Links.heal (Net.links net);
  let rng = Tact_util.Prng.create ~seed:3 in
  Links.set_loss (Net.links net) (Some (rng, 1.0));
  Net.send net ~src:0 ~dst:1 ~size:10 ignore;
  Links.set_loss (Net.links net) None;
  Net.send net ~src:0 ~dst:1 ~size:10 ignore;
  Engine.run e;
  let s = Net.stats net in
  Alcotest.(check int) "1 cut drop" 1 s.Net.dropped_cut;
  Alcotest.(check int) "1 loss drop" 1 s.Net.dropped_loss;
  Alcotest.(check int) "total is the sum" 2 s.Net.dropped;
  (* Satellite: per-link drops feed traffic_where instead of reading 0. *)
  let link01 = Net.traffic_where net (fun ~src ~dst -> src = 0 && dst = 1) in
  Alcotest.(check int) "per-link drops tracked" 2 link01.Net.dropped;
  Alcotest.(check int) "per-link delivery tracked" 1 link01.Net.messages

let test_net_link_loss_directed () =
  let e = Engine.create () in
  let net = Net.create e (Topology.uniform ~n:2 ~latency:0.01 ~bandwidth:1e9) () in
  let rng = Tact_util.Prng.create ~seed:3 in
  Links.set_link_loss (Net.links net) ~src:0 ~dst:1 (Some (rng, 1.0));
  let fwd = ref 0 and back = ref 0 in
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> incr fwd);
  Net.send net ~src:1 ~dst:0 ~size:10 (fun () -> incr back);
  Engine.run e;
  Alcotest.(check int) "lossy direction drops" 0 !fwd;
  Alcotest.(check int) "other direction flows" 1 !back;
  Links.set_link_loss (Net.links net) ~src:0 ~dst:1 None;
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> incr fwd);
  Engine.run e;
  Alcotest.(check int) "cleared" 1 !fwd

let test_net_duplication () =
  let e = Engine.create () in
  let net = Net.create e (Topology.uniform ~n:2 ~latency:0.1 ~bandwidth:1e9) () in
  let rng = Tact_util.Prng.create ~seed:9 in
  Links.set_duplication (Net.links net) (Some (rng, 1.0));
  let times = ref [] in
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> times := Engine.now e :: !times);
  Engine.run e;
  (match !times with
  | [ second; first ] ->
    Alcotest.(check bool) "original on time" true
      (feq first (0.1 +. (10.0 /. 1e9)));
    Alcotest.(check bool) "duplicate strictly later" true (second > first)
  | l ->
    Alcotest.failf "expected exactly 2 deliveries, got %d" (List.length l));
  Links.set_duplication (Net.links net) None;
  let count = ref 0 in
  Net.send net ~src:0 ~dst:1 ~size:10 (fun () -> incr count);
  Engine.run e;
  Alcotest.(check int) "disabled again" 1 !count

let test_net_delay_and_bandwidth_factors () =
  let e = Engine.create () in
  (* latency 0.1, 1 MB/s: 1000 bytes = 0.001s serialisation. *)
  let net = Net.create e (Topology.uniform ~n:2 ~latency:0.1 ~bandwidth:1e6) () in
  let t = ref nan in
  Links.set_delay_factor (Net.links net) 2.0;
  Net.send net ~src:0 ~dst:1 ~size:1000 (fun () -> t := Engine.now e);
  Engine.run e;
  Alcotest.(check bool) "delay doubled" true (feq !t 0.202);
  Links.set_delay_factor (Net.links net) 1.0;
  Links.set_bandwidth_factor (Net.links net) 0.5;
  let t2 = ref nan in
  Net.send net ~src:0 ~dst:1 ~size:1000 (fun () -> t2 := Engine.now e);
  Engine.run e;
  Alcotest.(check bool) "bandwidth halved doubles serialisation" true
    (feq (!t2 -. 0.202) (0.1 +. 0.002));
  Links.set_bandwidth_factor (Net.links net) 1.0;
  let t3 = ref nan in
  Net.send net ~src:0 ~dst:1 ~size:1000 (fun () -> t3 := Engine.now e);
  Engine.run e;
  Alcotest.(check bool) "factors 1.0 restore nominal delay" true
    (feq (!t3 -. !t2) 0.101)

let fault_suite =
  [
    Alcotest.test_case "net oneway partition" `Quick test_net_oneway_partition;
    Alcotest.test_case "net heal_between targeted" `Quick test_net_heal_between_targeted;
    Alcotest.test_case "net drop accounting" `Quick test_net_drop_accounting;
    Alcotest.test_case "net per-link loss" `Quick test_net_link_loss_directed;
    Alcotest.test_case "net duplication" `Quick test_net_duplication;
    Alcotest.test_case "net delay/bandwidth factors" `Quick
      test_net_delay_and_bandwidth_factors;
  ]

let suite = base_suite @ traffic_suite @ fault_suite
