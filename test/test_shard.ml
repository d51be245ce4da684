(* Sharded conit space: router properties, differential sharded-vs-unsharded
   runs (1 shard must replay the plain system byte-for-byte, including under
   nemesis fault schedules), -j1 vs -jN determinism down to serialized JSON,
   interest-set routing errors, and the planted wrong-shard bugs the
   interest-set-aware checker must catch. *)

open Tact_util
open Tact_sim
open Tact_store
open Tact_core
open Tact_replica

let topo ?(latency = 0.04) n = Topology.uniform ~n ~latency ~bandwidth:1_000_000.0
let unit_weight conit = { Write.conit; nweight = 1.0; oweight = 1.0 }
let conit_names = [| "alpha"; "beta"; "gamma"; "delta" |]

(* --- Router ----------------------------------------------------------- *)

let test_router_basics () =
  Alcotest.(check int) "single has one shard" 1 (Shard.shards Shard.single);
  Alcotest.(check int) "single routes to 0" 0 (Shard.route Shard.single "any");
  let r = Shard.by_hash ~shards:4 in
  Array.iter
    (fun c ->
      let s = Shard.route r c in
      Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
      Alcotest.(check int) "deterministic" s (Shard.route r c))
    conit_names;
  match Shard.by_hash ~shards:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shards < 1 accepted"

let test_router_pins () =
  let base = Shard.by_hash ~shards:3 in
  let r = Shard.with_table base [ ("alpha", 2); ("beta", 0) ] in
  Alcotest.(check int) "pin alpha" 2 (Shard.route r "alpha");
  Alcotest.(check int) "pin beta" 0 (Shard.route r "beta");
  Alcotest.(check int) "unpinned falls back" (Shard.route base "gamma")
    (Shard.route r "gamma");
  Alcotest.(check bool) "renders for diagnostics" true
    (String.length (Shard.to_string r) > 0)

let test_route_write_cross_shard_rejected () =
  let r = Shard.with_table (Shard.by_hash ~shards:2) [ ("a", 0); ("b", 1) ] in
  let w =
    Write.make ~id:{ Write.origin = 0; seq = 1 } ~accept_time:0.0 ~op:Op.Noop
      ~affects:[ unit_weight "a"; unit_weight "b" ]
  in
  (match Shard.route_write r w with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "cross-shard write routed to %d" s);
  let w0 =
    Write.make ~id:{ Write.origin = 0; seq = 2 } ~accept_time:0.0 ~op:Op.Noop
      ~affects:[]
  in
  Alcotest.(check int) "conit-less writes live in shard 0" 0
    (Shard.route_write r w0)

(* --- Differential: 1 shard vs plain system ---------------------------- *)

(* The same deterministic workload, schedulable against either driver: a mix
   of writes across conits and replicas plus weak reads, all at fixed times.
   [sched] places the thunk on the engine owning the conit's shard (for the
   plain system, always its single engine). *)
let drive ~n ~sched ~write ~read =
  for i = 0 to 47 do
    let r = i mod n in
    let c = conit_names.(i mod Array.length conit_names) in
    let tm = 0.5 +. (0.37 *. float_of_int i) in
    sched c tm (fun () -> write ~replica:r ~conit:c ~v:(1.0 +. float_of_int i))
  done;
  for i = 0 to 7 do
    let r = (i * 3) mod n in
    let c = conit_names.(i mod Array.length conit_names) in
    sched c (20.0 +. float_of_int i) (fun () -> read ~replica:r ~conit:c)
  done

let plain_drivers sys =
  ( (fun _conit tm f -> Engine.at (System.engine sys) ~time:tm f),
    (fun ~replica ~conit ~v ->
      Replica.submit_write (System.replica sys replica) ~deps:[]
        ~affects:[ unit_weight conit ]
        ~op:(Op.Add ("x:" ^ conit, v))
        ~k:ignore),
    fun ~replica ~conit ->
      Replica.submit_read (System.replica sys replica)
        ~deps:[ (conit, Bounds.weak) ]
        ~f:(fun db -> Db.get db ("x:" ^ conit))
        ~k:ignore )

let sharded_drivers sh =
  ( (fun conit tm f ->
      Engine.at (Sharded.engine sh ~shard:(Sharded.route sh conit)) ~time:tm f),
    (fun ~replica ~conit ~v ->
      Sharded.submit_write sh ~replica ~deps:[]
        ~affects:[ unit_weight conit ]
        ~op:(Op.Add ("x:" ^ conit, v))
        ~k:ignore),
    fun ~replica ~conit ->
      Sharded.submit_read sh ~replica
        ~deps:[ (conit, Bounds.weak) ]
        ~f:(fun db -> Db.get db ("x:" ^ conit))
        ~k:ignore )

let stats_equal (a : Replica.stats) (b : Replica.stats) = a = b

(* Field-by-field byte-identity of a plain system and a 1-shard sharded one:
   databases, version vectors, per-replica protocol counters, net totals. *)
let assert_identical ~ctx sys sh =
  let n = System.size sys in
  Alcotest.(check int) (ctx ^ ": one shard") 1 (Sharded.shards sh);
  for r = 0 to n - 1 do
    let pr = System.replica sys r and sr = Sharded.replica sh ~shard:0 r in
    Alcotest.(check bool)
      (Printf.sprintf "%s: replica %d db identical" ctx r)
      true
      (Db.equal (Replica.db pr) (Replica.db sr));
    Alcotest.(check bool)
      (Printf.sprintf "%s: replica %d vector identical" ctx r)
      true
      (Version_vector.equal
         (Wlog.vector (Replica.log pr))
         (Wlog.vector (Replica.log sr)));
    Alcotest.(check bool)
      (Printf.sprintf "%s: replica %d stats identical" ctx r)
      true
      (stats_equal (Replica.stats pr) (Replica.stats sr))
  done;
  let pt = System.traffic sys and st = Sharded.traffic sh in
  Alcotest.(check bool) (ctx ^ ": traffic identical") true (pt = st);
  Alcotest.(check bool)
    (ctx ^ ": aggregate stats identical")
    true
    (stats_equal (System.total_stats sys) (Sharded.total_stats sh));
  Alcotest.(check int) (ctx ^ ": sub-system spans all replicas") n
    (System.size (Sharded.sub sh 0))

let diff_config =
  {
    Config.default with
    Config.conits =
      Array.to_list (Array.map (fun c -> Conit.unconstrained c) conit_names);
    antientropy_period = Some 2.0;
  }

let run_diff_pair ~ctx ~config ~seed ~n ~horizon ~faults =
  let sys = System.create ~seed ~topology:(topo n) ~config () in
  let sh =
    Sharded.create ~seed ~topology:(topo n)
      ~config:{ config with Config.shards = 1 }
      ()
  in
  (match faults with
  | None -> ()
  | Some sched ->
    Tact_check.Fault.install (Sharded.of_system sys) sched;
    Tact_check.Fault.install sh sched);
  let psched, pwrite, pread = plain_drivers sys in
  drive ~n ~sched:psched ~write:pwrite ~read:pread;
  let ssched, swrite, sread = sharded_drivers sh in
  drive ~n ~sched:ssched ~write:swrite ~read:sread;
  System.run ~until:horizon sys;
  Sharded.run ~until:horizon sh;
  assert_identical ~ctx sys sh;
  Alcotest.(check bool) (ctx ^ ": plain converged") true (System.converged sys);
  Alcotest.(check bool) (ctx ^ ": sharded converged") true (Sharded.converged sh);
  Alcotest.(check (list string))
    (ctx ^ ": sharded O3 clean")
    []
    (Tact_check.Oracle.check_converged sh)

let test_one_shard_identical_per_write () =
  run_diff_pair ~ctx:"per-write" ~config:diff_config ~seed:7 ~n:4
    ~horizon:120.0 ~faults:None

let test_one_shard_identical_batched () =
  let config = { diff_config with Config.sync = Config.Batched } in
  run_diff_pair ~ctx:"batched" ~config ~seed:11 ~n:4 ~horizon:120.0
    ~faults:None

let test_one_shard_identical_under_faults () =
  let rng = Prng.create ~seed:1234 in
  let n = 4 in
  let events =
    Tact_check.Gen.compose
      [
        Tact_check.Gen.crash_storm (Prng.split rng) ~n ~start:2.0
          ~horizon:40.0 ~mean_uptime:8.0 ~mean_downtime:4.0;
        Tact_check.Gen.flapping_link (Prng.split rng) ~n ~start:5.0
          ~period:6.0 ~flaps:4;
      ]
  in
  let sched = { Tact_check.Fault.events; quiet_after = 60.0 } in
  Alcotest.(check (list string))
    "schedule well formed" []
    (Tact_check.Fault.validate ~n sched);
  run_diff_pair ~ctx:"nemesis" ~config:diff_config ~seed:23 ~n ~horizon:200.0
    ~faults:(Some sched)

(* --- Determinism: -j1 vs -j4 ------------------------------------------ *)

let pinned_router shards =
  Shard.with_table (Shard.by_hash ~shards)
    (Array.to_list (Array.mapi (fun i c -> (c, i mod shards)) conit_names))

(* 3 shards, 6 replicas, partial interest (each replica serves 2 shards). *)
let sharded_instance ~seed =
  let shards = 3 in
  let n = 6 in
  let interest r = List.sort_uniq Int.compare [ r mod shards; (r + 1) mod shards ] in
  let config =
    {
      diff_config with
      Config.shards;
      interest = Some interest;
      sync = Config.Batched;
    }
  in
  let router = pinned_router shards in
  let sh = Sharded.create ~seed ~router ~topology:(topo n) ~config () in
  let sched, write, read = sharded_drivers sh in
  (* Only submit at replicas subscribed to the conit's shard. *)
  let subscribed_write ~replica ~conit ~v =
    let s = Sharded.route sh conit in
    let replica =
      if Sharded.subscribed sh ~shard:s replica then replica
      else (Sharded.members sh s).(replica mod Array.length (Sharded.members sh s))
    in
    write ~replica ~conit ~v
  in
  let subscribed_read ~replica ~conit =
    let s = Sharded.route sh conit in
    let replica =
      if Sharded.subscribed sh ~shard:s replica then replica
      else (Sharded.members sh s).(replica mod Array.length (Sharded.members sh s))
    in
    read ~replica ~conit
  in
  drive ~n ~sched ~write:subscribed_write ~read:subscribed_read;
  sh

let test_jobs_determinism () =
  let run jobs =
    let sh = sharded_instance ~seed:99 in
    Sharded.run ~jobs ~until:150.0 sh;
    sh
  in
  let s1 = run 1 and s4 = run 4 in
  let d1 = Sharded.digest s1 and d4 = Sharded.digest s4 in
  Alcotest.(check bool) "digest non-trivial" true (String.length d1 > 100);
  Alcotest.(check string) "-j1 and -j4 serialized state identical" d1 d4;
  Alcotest.(check bool) "partial-interest run converged" true
    (Sharded.converged s4);
  Alcotest.(check (list string))
    "interest-set O3 clean" []
    (Tact_check.Oracle.check_converged s4)

(* --- Interest-set routing errors -------------------------------------- *)

let test_routing_errors () =
  let shards = 2 in
  let n = 3 in
  let router = Shard.with_table (Shard.by_hash ~shards) [ ("a", 0); ("b", 1) ] in
  let interest r = if r = 0 then [ 0 ] else [ 0; 1 ] in
  let config =
    { Config.default with Config.shards; interest = Some interest }
  in
  let sh = Sharded.create ~router ~topology:(topo n) ~config () in
  Alcotest.(check int) "config round-trips" shards
    (Sharded.config sh).Config.shards;
  Alcotest.(check int) "target shard of a conit set" 1
    (Sharded.target_shard sh [ "b" ]);
  (match Sharded.target_shard sh [ "a"; "b" ] with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "mixed-shard conit set targeted %d" s);
  Alcotest.(check (option int)) "replica 0 not in shard 1" None
    (Sharded.local_id sh ~shard:1 0);
  Alcotest.(check bool) "replica 1 in shard 1" true
    (Sharded.subscribed sh ~shard:1 1);
  (* Submitting at a replica outside the conit's shard is an error... *)
  (match
     Sharded.submit_write sh ~replica:0 ~deps:[]
       ~affects:[ unit_weight "b" ]
       ~op:(Op.Add ("x", 1.0))
       ~k:ignore
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unsubscribed submission accepted");
  (* ...and so is an access spanning shards. *)
  (match
     Sharded.submit_write sh ~replica:1 ~deps:[]
       ~affects:[ unit_weight "a"; unit_weight "b" ]
       ~op:(Op.Add ("x", 1.0))
       ~k:ignore
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cross-shard access accepted");
  (* Spec-level interest derivation agrees with the router. *)
  let cls =
    Spec.op_class ~name:"w"
      ~affects:(fun c -> [ (c, 1.0, 1.0) ])
      ~op:(fun _ -> Op.Noop)
      ()
  in
  let q =
    Spec.query ~name:"r"
      ~depends:(fun c -> [ (c, Tact_core.Bounds.weak) ])
      ~read:(fun c db -> Db.get db ("x:" ^ c))
      ()
  in
  Alcotest.(check (list int))
    "interest from op classes and queries" [ 0; 1 ]
    (Spec.interest ~router
       (Spec.class_conits cls "a" @ Spec.query_conits q "b"))

let test_empty_interest_rejected () =
  let config =
    {
      Config.default with
      Config.shards = 2;
      interest = Some (fun r -> if r = 0 then [] else [ 0; 1 ]);
    }
  in
  match Sharded.create ~topology:(topo 2) ~config () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty interest set accepted"

(* --- Planted bugs ------------------------------------------------------ *)

(* With [Wrong_shard] planted every submission lands one shard over; the
   per-shard sub-systems still converge internally, so plain per-shard
   convergence cannot see the bug — the cross-shard containment audit
   (shard_leaks) must. *)
let test_planted_wrong_shard_caught () =
  let shards = 2 in
  let n = 3 in
  let router = Shard.with_table (Shard.by_hash ~shards) [ ("a", 0); ("b", 1) ] in
  let run ~planted =
    let config =
      {
        Config.default with
        Config.shards;
        antientropy_period = Some 1.0;
        conits = [ Conit.unconstrained "a"; Conit.unconstrained "b" ];
      }
    in
    let mutation = if planted then Mutation.Wrong_shard else Mutation.Off in
    let sh = Sharded.create ~mutation ~router ~topology:(topo n) ~config () in
    for i = 0 to 5 do
      let c = if i mod 2 = 0 then "a" else "b" in
      (* Schedule on the engine the submission will actually land on. *)
      let s = if planted then (Sharded.route sh c + 1) mod shards
              else Sharded.route sh c in
      Engine.at (Sharded.engine sh ~shard:s)
        ~time:(1.0 +. float_of_int i)
        (fun () ->
          Sharded.submit_write sh ~replica:(i mod n) ~deps:[]
            ~affects:[ unit_weight c ]
            ~op:(Op.Add ("x:" ^ c, 1.0))
            ~k:ignore)
    done;
    Sharded.run ~until:60.0 sh;
    sh
  in
  let healthy = run ~planted:false in
  Alcotest.(check (list string))
    "healthy run passes the interest-set O3" []
    (Tact_check.Oracle.check_converged healthy);
  Alcotest.(check int) "healthy run has no leaks" 0
    (List.length (Sharded.shard_leaks healthy));
  let buggy = run ~planted:true in
  let issues = Tact_check.Oracle.check_converged buggy in
  Alcotest.(check bool) "planted bug caught" true (issues <> []);
  Alcotest.(check bool) "caught as a shard leak" true
    (List.exists
       (fun l ->
         String.length l >= 10 && String.sub l 0 10 = "shard-leak")
       issues);
  Alcotest.(check bool) "leaks enumerated" true
    (Sharded.shard_leaks buggy <> [])

(* A Batch frame that reaches a replica serving a different shard is
   rejected at the wire (and counted), never applied — the frame-level
   defence behind the containment audit.  Two replicas with mismatched
   shard_id, joined by a hand-built endpoint that delivers every message
   after a fixed delay, stand in for a leaked delivery. *)
let test_wrong_shard_frame_rejected () =
  let engine = Engine.create () in
  let mk shard_id =
    {
      Config.default with
      Config.shards = 2;
      shard_id;
      sync = Config.Batched;
      antientropy_period = Some 0.5;
      conits = [ Conit.unconstrained "a" ];
    }
  in
  let peers = ref [||] in
  let endpoint src =
    {
      Transport.ep_now = (fun () -> Engine.now engine);
      ep_schedule = (fun ~tag:_ ~delay f -> Engine.schedule engine ~delay f);
      ep_every = (fun ~tag:_ ~period f -> Engine.every engine ~period f);
      ep_send =
        (fun ~dst msg ->
          Engine.schedule engine ~delay:0.04 (fun () ->
              Replica.receive !peers.(dst) ~src msg);
          Ok ());
      ep_close = ignore;
      ep_emit = None;
    }
  in
  let r0 = Replica.create ~id:0 ~n:2 ~endpoint:(endpoint 0) ~config:(mk 0) () in
  let r1 = Replica.create ~id:1 ~n:2 ~endpoint:(endpoint 1) ~config:(mk 1) () in
  peers := [| r0; r1 |];
  Engine.at engine ~time:0.1 (fun () ->
      Replica.submit_write r0 ~deps:[]
        ~affects:[ unit_weight "a" ]
        ~op:(Op.Add ("x", 1.0))
        ~k:ignore);
  Replica.start r0;
  Replica.start r1;
  Engine.run ~until:20.0 engine;
  let s1 = Replica.stats r1 in
  Alcotest.(check bool) "frames rejected and counted" true
    (s1.Replica.wrong_shard_frames > 0);
  Alcotest.(check bool) "rejected write never applied" false
    (Wlog.known (Replica.log r1) { Write.origin = 0; seq = 1 })

(* --- Shard-aware fault projection and O6 ------------------------------- *)

(* A read at replica [r], parked over [2, 5], that timed out. *)
let timed_out r =
  {
    Tact_check.Oracle.o_index = 0;
    o_rid = r;
    o_submit = 2.0;
    o_deadline = Some 5.0;
    o_read = true;
    o_completions = 0;
    o_timeouts = 1;
  }

let test_fault_projection_shard_local () =
  let shards = 2 in
  let n = 4 in
  let router = Shard.with_table (Shard.by_hash ~shards) [ ("a", 0); ("b", 1) ] in
  (* Replicas 0,1 serve shard 0 only; 2,3 serve shard 1 only. *)
  let interest r = [ (if r < 2 then 0 else 1) ] in
  let config =
    {
      Config.default with
      Config.shards;
      interest = Some interest;
      conits = [ Conit.unconstrained "a"; Conit.unconstrained "b" ];
    }
  in
  let sh = Sharded.create ~router ~topology:(topo n) ~config () in
  (* Crashing replica 3 must only touch shard 1's sub-system. *)
  let targets = Tact_check.Fault.targets sh in
  List.iter (fun t -> Tact_check.Fault.apply t (Tact_check.Fault.Crash 3)) targets;
  Alcotest.(check bool) "crashed in its shard" false
    (Replica.is_up (Sharded.replica sh ~shard:1 3));
  Alcotest.(check bool) "shard 0 untouched" true
    (Replica.is_up (Sharded.replica sh ~shard:0 0));
  List.iter Tact_check.Fault.clear targets;
  Alcotest.(check bool) "recovered" true
    (Replica.is_up (Sharded.replica sh ~shard:1 3));
  (* O6: a timeout at replica 0 (shard 0) cannot be excused by a crash
     confined to shard 1's interest set. *)
  let sched =
    {
      Tact_check.Fault.events =
        [ { Tact_check.Fault.at = 1.0; action = Tact_check.Fault.Crash 3 } ];
      quiet_after = 10.0;
    }
  in
  let o6 r =
    Tact_check.Oracle.check_unavailability sh ~schedule:sched ~slack:5.0
      [ timed_out r ]
  in
  Alcotest.(check bool) "interest-set O6 does not excuse it" true (o6 0 <> []);
  Alcotest.(check (list string))
    "interest-set O6 excuses a peer of the crash" [] (o6 2);
  Alcotest.(check (list string))
    "sharded liveness clean on quiet system" []
    (Tact_check.Oracle.check_liveness sh [])

(* A plain system seen as one shard: every replica shares the shard, so a
   crash anywhere excuses a timeout anywhere; O3 and O5 report in the plain
   wording (no "shard 0:" prefix, no "in shard 0"); nothing can leak. *)
let test_one_shard_view () =
  let n = 3 in
  let config =
    { Config.default with Config.conits = [ Conit.unconstrained "a" ] }
  in
  let sys = System.create ~seed:5 ~topology:(topo n) ~config () in
  let view = Sharded.of_system sys in
  Alcotest.(check int) "one shard" 1 (Sharded.shards view);
  Alcotest.(check int) "every replica" n (Sharded.size view);
  for crashed = 0 to n - 1 do
    let schedule =
      {
        Tact_check.Fault.events =
          [ { Tact_check.Fault.at = 1.0; action = Tact_check.Fault.Crash crashed } ];
        quiet_after = 10.0;
      }
    in
    for r = 0 to n - 1 do
      Alcotest.(check (list string))
        (Printf.sprintf "crash at %d excuses a timeout at %d" crashed r)
        []
        (Tact_check.Oracle.check_unavailability view ~schedule ~slack:5.0
           [ timed_out r ])
    done
  done;
  (* Replica 1 down while replica 0 writes: diverged and not recovered. *)
  let targets = Tact_check.Fault.targets view in
  List.iter (fun t -> Tact_check.Fault.apply t (Tact_check.Fault.Crash 1)) targets;
  Alcotest.(check bool) "the view's crash reaches the system" false
    (Replica.is_up (System.replica sys 1));
  Engine.at (System.engine sys) ~time:0.5 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[]
        ~affects:[ unit_weight "a" ] ~op:(Op.Add ("a", 1.0)) ~k:ignore);
  System.run ~until:5.0 sys;
  let o3 = Tact_check.Oracle.check_converged view in
  let o5 = Tact_check.Oracle.check_liveness view [] in
  Alcotest.(check bool) "O3 flags the divergence" true (o3 <> []);
  Alcotest.(check bool) "O3 in the plain wording" true
    (List.for_all (String.starts_with ~prefix:"convergence: ") o3);
  Alcotest.(check bool) "O5 names the down replica plainly" true
    (List.mem "liveness: replica 1 still down after heal" o5);
  Alcotest.(check bool) "O5 carries no shard" true
    (List.for_all
       (fun l ->
         String.starts_with ~prefix:"liveness: " l
         && not (String.starts_with ~prefix:"liveness: shard" l))
       o5);
  Alcotest.(check int) "no shard leaks" 0 (List.length (Sharded.shard_leaks view));
  List.iter Tact_check.Fault.clear targets;
  Alcotest.(check bool) "clear recovers through the view" true
    (Replica.is_up (System.replica sys 1))

let suite =
  [
    Alcotest.test_case "router basics" `Quick test_router_basics;
    Alcotest.test_case "router pins" `Quick test_router_pins;
    Alcotest.test_case "cross-shard writes rejected" `Quick
      test_route_write_cross_shard_rejected;
    Alcotest.test_case "1 shard == unsharded (per-write)" `Quick
      test_one_shard_identical_per_write;
    Alcotest.test_case "1 shard == unsharded (batched)" `Quick
      test_one_shard_identical_batched;
    Alcotest.test_case "1 shard == unsharded under faults" `Quick
      test_one_shard_identical_under_faults;
    Alcotest.test_case "-j1 == -j4 down to serialized JSON" `Quick
      test_jobs_determinism;
    Alcotest.test_case "interest-set routing errors" `Quick test_routing_errors;
    Alcotest.test_case "empty interest set rejected" `Quick
      test_empty_interest_rejected;
    Alcotest.test_case "planted wrong-shard routing caught" `Quick
      test_planted_wrong_shard_caught;
    Alcotest.test_case "wrong-shard frame rejected at the wire" `Quick
      test_wrong_shard_frame_rejected;
    Alcotest.test_case "faults project shard-locally; O6 interest-aware"
      `Quick test_fault_projection_shard_local;
    Alcotest.test_case "one-shard view of a plain system" `Quick
      test_one_shard_view;
  ]
