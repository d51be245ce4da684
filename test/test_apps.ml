(* Sample applications: behavioural shape checks on short runs. *)

open Tact_sim
open Tact_store
open Tact_replica
open Tact_apps

let feq a b = Float.abs (a -. b) < 1e-9

(* --- Bulletin board ------------------------------------------------------ *)

let test_bboard_bound_caps_error () =
  let r =
    Bboard.run ~seed:3 ~n:4 ~post_rate:2.0 ~read_rate:1.0 ~duration:20.0
      ~ne_bound:4.0 ~antientropy:None ()
  in
  Alcotest.(check bool) "observed NE never above bound" true (r.max_observed_ne <= 4.0);
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check bool) "posts happened" true (r.posts > 10)

let test_bboard_tighter_is_costlier () =
  let loose =
    Bboard.run ~seed:3 ~n:4 ~post_rate:2.0 ~read_rate:0.5 ~duration:20.0
      ~ne_bound:16.0 ~antientropy:None ()
  in
  let tight =
    Bboard.run ~seed:3 ~n:4 ~post_rate:2.0 ~read_rate:0.5 ~duration:20.0
      ~ne_bound:1.0 ~antientropy:None ()
  in
  Alcotest.(check bool) "tight sends more messages" true (tight.messages > loose.messages);
  Alcotest.(check bool) "tight sees less error" true
    (tight.mean_observed_ne <= loose.mean_observed_ne)

let test_bboard_friends_conit () =
  let sys = System.create ~topology:(Topology.uniform ~n:2 ~latency:0.02 ~bandwidth:1e6) ~config:Config.default () in
  let s = Session.create (System.replica sys 0) in
  Bboard.post s ~author:0 ~friends:[ 0 ] ~text:"hi" ~k:ignore;
  Bboard.post s ~author:0 ~friends:[ 9 ] ~text:"yo" ~k:ignore;
  System.run sys;
  let log = Replica.log (System.replica sys 0) in
  Alcotest.(check bool) "all msgs counted" true (feq (Wlog.conit_value log Bboard.conit_all) 2.0);
  Alcotest.(check bool) "friends counted once" true
    (feq (Wlog.conit_value log Bboard.conit_friends) 1.0)

(* --- Airline --------------------------------------------------------------- *)

let test_airline_bound_lowers_conflicts () =
  let loose =
    Airline.run ~seed:5 ~n:4 ~flights:1 ~seats:100 ~rate:2.0 ~duration:30.0
      ~ne_rel:infinity ()
  in
  let tight =
    Airline.run ~seed:5 ~n:4 ~flights:1 ~seats:100 ~rate:2.0 ~duration:30.0
      ~ne_rel:0.05 ()
  in
  Alcotest.(check bool) "bounded run conflicts less" true
    (tight.conflict_rate < loose.conflict_rate);
  Alcotest.(check bool) "bounded run has lower measured NE" true
    (tight.mean_rel_ne < loose.mean_rel_ne);
  Alcotest.(check bool) "loose run shows real conflicts" true (loose.final_conflicts > 0)

let test_airline_conflict_rate_tracks_ne () =
  let r =
    Airline.run ~seed:9 ~n:4 ~flights:1 ~seats:100 ~rate:2.0 ~duration:40.0
      ~ne_rel:infinity ()
  in
  (* The Section 4.1 claim, loosely: conflict rate within a small factor of
     the measured mean relative NE (only same-seat races materialise). *)
  Alcotest.(check bool)
    (Printf.sprintf "rate %.3f vs relNE %.3f" r.conflict_rate r.mean_rel_ne)
    true
    (r.conflict_rate <= r.mean_rel_ne *. 1.5 && r.conflict_rate >= r.mean_rel_ne /. 10.0)

let test_airline_no_double_booking () =
  let r =
    Airline.run ~seed:11 ~n:3 ~flights:1 ~seats:10 ~rate:2.0 ~duration:30.0
      ~ne_rel:infinity ()
  in
  (* With only 10 seats and ~180 attempts, the committed state must never
     oversell: successful final outcomes <= seats. *)
  Alcotest.(check bool) "attempts exceeded capacity" true (r.attempts > 10);
  Alcotest.(check bool) "successes bounded by seats" true
    (r.attempts - r.final_conflicts - r.tentative_conflicts <= 10 + r.tentative_conflicts)

let test_airline_committed_state_consistent () =
  (* Directly inspect the committed image: the taken-seat list per flight has
     no duplicates. *)
  let sys =
    System.create
      ~topology:(Topology.uniform ~n:2 ~latency:0.02 ~bandwidth:1e6)
      ~config:
        { Config.default with Config.antientropy_period = Some 0.2; procs = Airline.procs }
      ()
  in
  let engine = System.engine sys in
  let rng = Tact_util.Prng.create ~seed:17 in
  for i = 0 to 1 do
    let s = Session.create (System.replica sys i) in
    let prng = Tact_util.Prng.split rng in
    Tact_workload.Workload.staggered engine ~start:0.1 ~gap:0.3 ~count:20 (fun _ ->
        Airline.reserve s ~rng:prng ~flight:0 ~seats:12 ~k:ignore)
  done;
  System.run ~until:60.0 sys;
  let db = Wlog.committed_db (Replica.log (System.replica sys 0)) in
  let taken = List.map Value.to_int (Value.to_list (Db.get db (Airline.flight_key 0))) in
  let dedup = List.sort_uniq compare taken in
  Alcotest.(check int) "no duplicate seats" (List.length dedup) (List.length taken);
  Alcotest.(check bool) "plane full or close" true (List.length taken <= 12)

(* --- QoS --------------------------------------------------------------- *)

let test_qos_bound_improves_routing () =
  let tight = Qos.run ~seed:7 ~n:4 ~rate:4.0 ~duration:20.0 ~ne_bound:1.0 () in
  let loose = Qos.run ~seed:7 ~n:4 ~rate:4.0 ~duration:20.0 ~ne_bound:infinity () in
  Alcotest.(check bool) "fewer misroutes when bounded" true
    (tight.misroute_rate < loose.misroute_rate);
  Alcotest.(check bool) "less imbalance when bounded" true
    (tight.mean_imbalance < loose.mean_imbalance);
  Alcotest.(check bool) "more traffic when bounded" true (tight.messages > loose.messages)

(* --- Editor --------------------------------------------------------------- *)

let test_editor_insert_delete () =
  let sys =
    System.create
      ~topology:(Topology.uniform ~n:2 ~latency:0.02 ~bandwidth:1e6)
      ~config:
        { Config.default with Config.antientropy_period = Some 0.2; procs = Editor.procs }
      ()
  in
  let engine = System.engine sys in
  let s0 = Session.create (System.replica sys 0) in
  Engine.schedule engine ~delay:0.1 (fun () ->
      Editor.insert_text s0 ~para:0 ~author:0 ~text:"hello " ~k:ignore);
  Engine.schedule engine ~delay:0.2 (fun () ->
      Editor.insert_text s0 ~para:0 ~author:0 ~text:"world" ~k:ignore);
  Engine.schedule engine ~delay:0.3 (fun () ->
      Editor.delete_chars s0 ~para:0 ~author:0 ~count:5 ~k:ignore);
  System.run ~until:30.0 sys;
  let text r =
    List.hd (Editor.document (Replica.db (System.replica sys r)) ~paras:1)
  in
  Alcotest.(check string) "edited text" "hello " (text 0);
  Alcotest.(check string) "replicated text" "hello " (text 1);
  (* Conit values reflect character weights. *)
  let log = Replica.log (System.replica sys 1) in
  Alcotest.(check bool) "add conit = 11 chars" true
    (feq (Wlog.conit_value log (Editor.add_conit ~para:0)) 11.0);
  Alcotest.(check bool) "del conit = 5 chars" true
    (feq (Wlog.conit_value log (Editor.del_conit ~para:0)) 5.0);
  Alcotest.(check bool) "author conit = 16" true
    (feq (Wlog.conit_value log (Editor.author_conit ~para:0 ~author:0)) 16.0)

let test_editor_delete_clamps () =
  let sys =
    System.create
      ~topology:(Topology.uniform ~n:1 ~latency:0.0 ~bandwidth:1e6)
      ~config:{ Config.default with Config.procs = Editor.procs } ()
  in
  let s = Session.create (System.replica sys 0) in
  Editor.insert_text s ~para:0 ~author:0 ~text:"ab" ~k:ignore;
  Editor.delete_chars s ~para:0 ~author:0 ~count:10 ~k:ignore;
  System.run sys;
  Alcotest.(check string) "clamped to empty" ""
    (List.hd (Editor.document (Replica.db (System.replica sys 0)) ~paras:1))

(* --- Sensor --------------------------------------------------------------- *)

let test_sensor_bounded_query () =
  let sys =
    System.create
      ~topology:(Topology.uniform ~n:2 ~latency:0.02 ~bandwidth:1e6)
      ~config:
        {
          Config.default with
          Config.conits =
            [ Tact_core.Conit.declare ~ne_bound:2.0 (Sensor.record_conit "r") ];
        }
      ()
  in
  let engine = System.engine sys in
  let s0 = Session.create (System.replica sys 0) in
  let s1 = Session.create (System.replica sys 1) in
  Tact_workload.Workload.staggered engine ~start:0.1 ~gap:0.2 ~count:10 (fun _ ->
      Sensor.report s0 ~record:"r" ~delta:1.0 ~k:ignore);
  let result = ref nan in
  Engine.schedule engine ~delay:2.05 (fun () ->
      Sensor.query s1 ~record:"r" ~max_error:2.0 ~k:(fun v -> result := v));
  System.run ~until:30.0 sys;
  (* At query time 10 reports happened globally; the bound guarantees the
     queried view is within 2. *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded view (got %.1f)" !result)
    true
    (!result >= 8.0 && !result <= 10.0);
  Alcotest.(check bool) "no violations" true (Verify.check sys = [])

let base_suite =
  [
    Alcotest.test_case "bboard bound caps error" `Quick test_bboard_bound_caps_error;
    Alcotest.test_case "bboard tighter costlier" `Quick test_bboard_tighter_is_costlier;
    Alcotest.test_case "bboard friends conit" `Quick test_bboard_friends_conit;
    Alcotest.test_case "airline bound lowers conflicts" `Quick test_airline_bound_lowers_conflicts;
    Alcotest.test_case "airline rate tracks NE" `Quick test_airline_conflict_rate_tracks_ne;
    Alcotest.test_case "airline no overselling" `Quick test_airline_no_double_booking;
    Alcotest.test_case "airline committed seats unique" `Quick test_airline_committed_state_consistent;
    Alcotest.test_case "qos bound improves routing" `Quick test_qos_bound_improves_routing;
    Alcotest.test_case "editor insert/delete" `Quick test_editor_insert_delete;
    Alcotest.test_case "editor delete clamps" `Quick test_editor_delete_clamps;
    Alcotest.test_case "sensor bounded query" `Quick test_sensor_bounded_query;
  ]

(* --- Virtual world ------------------------------------------------------- *)

let test_vworld_focus_nimbus () =
  let r =
    Vworld.run ~seed:151 ~n:4 ~move_rate:4.0 ~observe_rate:2.0 ~duration:15.0
      ~near_bound:1.0 ~far_bound:20.0 ()
  in
  Alcotest.(check bool) "focus more accurate" true (r.near_err < r.far_err);
  Alcotest.(check bool) "focus error within bound (+move slack)" true
    (r.near_err <= r.near_bound +. 1.0);
  Alcotest.(check bool) "focus pays latency" true (r.near_lat > r.far_lat);
  Alcotest.(check bool) "peripheral reads are local" true (r.far_lat < 1e-9);
  Alcotest.(check int) "no violations" 0 r.violations

let test_vworld_move_geometry () =
  let sys =
    System.create
      ~topology:(Topology.uniform ~n:1 ~latency:0.0 ~bandwidth:1e6)
      ~config:{ Config.default with Config.procs = Vworld.procs } ()
  in
  let s = Session.create (System.replica sys 0) in
  Vworld.move s ~entity:0 ~dx:3.0 ~dy:4.0 ~k:ignore;
  System.run sys;
  let x, y = Vworld.position (Replica.db (System.replica sys 0)) ~entity:0 in
  Alcotest.(check bool) "position applied" true (feq x 3.0 && feq y 4.0);
  (* nweight of the move is its Euclidean length. *)
  let w = List.hd (System.all_writes sys) in
  Alcotest.(check bool) "weight = distance" true
    (feq (Write.nweight w (Vworld.pos_conit 0)) 5.0)

let vworld_suite =
  [
    Alcotest.test_case "vworld focus/nimbus" `Quick test_vworld_focus_nimbus;
    Alcotest.test_case "vworld move geometry" `Quick test_vworld_move_geometry;
  ]


(* --- Roads ----------------------------------------------------------------- *)

let test_roads_accuracy_spreads_traffic () =
  let tight = Roads.run ~seed:31 ~n:4 ~sections:4 ~rate:3.0 ~duration:25.0 ~ne_bound:2.0 () in
  let loose = Roads.run ~seed:31 ~n:4 ~sections:4 ~rate:3.0 ~duration:25.0 ~ne_bound:infinity () in
  Alcotest.(check bool)
    (Printf.sprintf "accurate views spread traffic (%.2f < %.2f)" tight.mean_spread
       loose.mean_spread)
    true
    (tight.mean_spread < loose.mean_spread);
  Alcotest.(check bool) "accuracy costs traffic" true (tight.messages > loose.messages);
  Alcotest.(check int) "tight run clean" 0 tight.violations

let test_roads_capacity_enforced () =
  (* A tiny section capacity under heavy load: the committed state never
     exceeds capacity. *)
  let sys =
    System.create
      ~topology:(Topology.uniform ~n:2 ~latency:0.02 ~bandwidth:1e6)
      ~config:
        { Config.default with Config.antientropy_period = Some 0.2; procs = Roads.procs }
      ()
  in
  let engine = System.engine sys in
  for i = 0 to 1 do
    let s = Session.create (System.replica sys i) in
    Tact_workload.Workload.staggered engine ~start:0.1 ~gap:0.2 ~count:15 (fun _ ->
        Roads.reserve_section s ~section:0 ~capacity:5 ~k:ignore)
  done;
  System.run ~until:60.0 sys;
  let committed = Wlog.committed_db (Replica.log (System.replica sys 0)) in
  Alcotest.(check bool) "capacity respected in committed state" true
    (Db.get_float committed (Roads.section_key 0) <= 5.0)

let roads_suite =
  [
    Alcotest.test_case "roads accuracy spreads traffic" `Quick test_roads_accuracy_spreads_traffic;
    Alcotest.test_case "roads capacity enforced" `Quick test_roads_capacity_enforced;
  ]

let suite = base_suite @ vworld_suite @ roads_suite
