(* Replica and Session behaviour beyond the smoke tests: session weight
   consumption, access records, read-your-writes within a replica, commit
   schemes, partitions, and randomized whole-system properties checked by the
   omniscient verifier. *)

open Tact_sim
open Tact_store
open Tact_core
open Tact_replica

let topo ?(latency = 0.04) n = Topology.uniform ~n ~latency ~bandwidth:1_000_000.0

let unit_weight conit = { Write.conit; nweight = 1.0; oweight = 1.0 }

let feq a b = Float.abs (a -. b) < 1e-9

(* --- Session ---------------------------------------------------------- *)

let test_session_consumes_spec () =
  let config = Config.default in
  let sys = System.create ~topology:(topo 2) ~config () in
  let s = Session.create (System.replica sys 0) in
  Session.affect_conit s "a" ~nweight:2.0 ~oweight:1.0;
  Session.write s (Op.Add ("x", 1.0)) ~k:ignore;
  (* The next write carries no leftover weights. *)
  Session.write s (Op.Add ("x", 1.0)) ~k:ignore;
  System.run sys;
  let ws = System.all_writes sys in
  Alcotest.(check int) "two writes" 2 (List.length ws);
  (match ws with
  | [ w1; w2 ] ->
    Alcotest.(check bool) "first affected" true (feq (Write.nweight w1 "a") 2.0);
    Alcotest.(check bool) "second clean" false (Write.affects_conit w2 "a")
  | _ -> Alcotest.fail "expected two writes");
  (* Same for deps on reads. *)
  Session.dependon_conit s "a" ~ne:1.0 ();
  Session.read s (fun _ -> Value.Nil) ~k:ignore;
  Session.read s (fun _ -> Value.Nil) ~k:ignore;
  System.run sys;
  let reads =
    List.filter (fun (a : Access.t) -> a.kind = Access.Read) (System.records sys)
  in
  Alcotest.(check int) "two reads" 2 (List.length reads);
  Alcotest.(check int) "only first has dep" 1
    (List.length (List.filter (fun (a : Access.t) -> a.deps <> []) reads))

let test_read_your_writes_locally () =
  let sys = System.create ~topology:(topo 2) ~config:Config.default () in
  let r0 = System.replica sys 0 in
  let seen = ref nan in
  Replica.submit_write r0 ~deps:[] ~affects:[] ~op:(Op.Add ("x", 1.0)) ~k:(fun _ ->
      Replica.submit_read r0 ~deps:[]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun v -> seen := Value.to_float v));
  System.run sys;
  Alcotest.(check bool) "own write visible" true (feq !seen 1.0)

let test_unknown_procedure_conflicts () =
  (* A procedure missing from the system's table is a typed conflict, not a
     crash: the write is logged, propagates and commits everywhere with the
     same outcome, under the runtime invariant audit. *)
  Tact_util.Sanitize.set_enabled true;
  Fun.protect ~finally:Tact_util.Sanitize.clear_forced (fun () ->
      let config = { Config.default with Config.antientropy_period = Some 0.5 } in
      let sys = System.create ~topology:(topo 3) ~config () in
      let outcome = ref None in
      Replica.submit_write (System.replica sys 0) ~deps:[] ~affects:[ unit_weight "c" ]
        ~op:(Op.Named ("nope", Value.Nil))
        ~k:(fun o -> outcome := Some o);
      System.run ~until:60.0 sys;
      (match !outcome with
      | Some (Op.Conflict r) ->
        Alcotest.(check string) "reason" "unknown procedure \"nope\"" r
      | Some (Op.Applied _) -> Alcotest.fail "unknown procedure applied"
      | None -> Alcotest.fail "write never returned");
      Alcotest.(check bool) "converged" true (System.converged sys);
      for i = 0 to 2 do
        let log = Replica.log (System.replica sys i) in
        Alcotest.(check int) "write held" 1 (Wlog.num_known log);
        Alcotest.(check bool) "committed as a conflict" true
          (match Wlog.final_outcome log { Write.origin = 0; seq = 1 } with
          | Some (Op.Conflict _) -> true
          | _ -> false)
      done)

let test_access_records_complete () =
  let sys = System.create ~topology:(topo 2) ~config:Config.default () in
  let r0 = System.replica sys 0 in
  let engine = System.engine sys in
  Engine.schedule engine ~delay:1.0 (fun () ->
      Replica.submit_write r0 ~deps:[] ~affects:[ unit_weight "c" ]
        ~op:(Op.Add ("x", 1.0)) ~k:ignore);
  Engine.schedule engine ~delay:2.0 (fun () ->
      Replica.submit_read r0 ~deps:[ ("c", Bounds.weak) ]
        ~f:(fun db -> Db.get db "x")
        ~k:ignore);
  System.run sys;
  let records = System.records sys in
  Alcotest.(check int) "two records" 2 (List.length records);
  let write_rec = List.hd records and read_rec = List.nth records 1 in
  (match write_rec.Access.kind with
  | Access.Write_access id -> Alcotest.(check int) "write id" 1 id.Write.seq
  | Access.Read -> Alcotest.fail "first should be the write");
  Alcotest.(check bool) "times sane" true
    (feq write_rec.Access.submit_time 1.0 && feq read_rec.Access.submit_time 2.0);
  Alcotest.(check bool) "read observed the write" true
    (Version_vector.covers read_rec.Access.observed_vector ~origin:0 ~seq:1);
  Alcotest.(check bool) "read result" true
    (feq (Value.to_float read_rec.Access.observed_result) 1.0)

(* --- Commit schemes ------------------------------------------------------ *)

let run_writes_and_quiesce ~config ~n ~writes =
  let sys = System.create ~topology:(topo n) ~config () in
  let engine = System.engine sys in
  List.iteri
    (fun k (replica, delay) ->
      ignore k;
      Engine.schedule engine ~delay (fun () ->
          Replica.submit_write (System.replica sys replica) ~deps:[]
            ~affects:[ unit_weight "c" ]
            ~op:(Op.Add ("x", 1.0))
            ~k:ignore))
    writes;
  System.run ~until:200.0 sys;
  sys

let test_primary_commits_everything () =
  let config =
    {
      Config.default with
      Config.commit_scheme = Config.Primary 0;
      antientropy_period = Some 0.5;
    }
  in
  let sys =
    run_writes_and_quiesce ~config ~n:3
      ~writes:[ (0, 1.0); (1, 1.2); (2, 1.4); (1, 2.0) ]
  in
  for i = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d committed all" i)
      4
      (Wlog.committed_count (Replica.log (System.replica sys i)))
  done;
  (* Identical commit order everywhere. *)
  let order i =
    List.map (fun (w : Write.t) -> w.Write.id)
      (Wlog.committed (Replica.log (System.replica sys i)))
  in
  Alcotest.(check bool) "same order" true (order 0 = order 1 && order 1 = order 2)

let test_stability_commit_order_is_canonical () =
  let config = { Config.default with Config.antientropy_period = Some 0.5 } in
  let sys =
    run_writes_and_quiesce ~config ~n:3
      ~writes:[ (2, 1.0); (1, 1.2); (0, 1.4); (2, 2.0) ]
  in
  let committed = Wlog.committed (Replica.log (System.replica sys 0)) in
  Alcotest.(check int) "all committed" 4 (List.length committed);
  let times = List.map (fun (w : Write.t) -> w.Write.accept_time) committed in
  Alcotest.(check (list (float 1e-9))) "timestamp order" (List.sort compare times) times

let test_partition_blocks_stability_commit () =
  let config = { Config.default with Config.antientropy_period = Some 0.5 } in
  let sys = System.create ~topology:(topo 3) ~config () in
  let engine = System.engine sys in
  Links.partition (Net.links (System.net sys)) [ 2 ] [ 0; 1 ];
  Engine.schedule engine ~delay:1.0 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[]
        ~affects:[ unit_weight "c" ] ~op:(Op.Add ("x", 1.0)) ~k:ignore);
  System.run ~until:30.0 sys;
  (* Replica 2 never covers past the write's accept time, so nothing commits. *)
  Alcotest.(check int) "stability stalls" 0
    (Wlog.committed_count (Replica.log (System.replica sys 0)));
  (* Heal: commitment resumes. *)
  Links.heal (Net.links (System.net sys));
  Engine.schedule engine ~delay:1.0 (fun () -> ());
  System.run ~until:90.0 sys;
  Alcotest.(check int) "commits after heal" 1
    (Wlog.committed_count (Replica.log (System.replica sys 0)))

let test_partitioned_strong_read_blocks_then_serves () =
  let config =
    { Config.default with Config.conits = [ Conit.declare "c" ] }
  in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  Engine.schedule engine ~delay:0.5 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[]
        ~affects:[ unit_weight "c" ] ~op:(Op.Add ("x", 1.0)) ~k:ignore);
  Engine.schedule engine ~delay:1.0 (fun () ->
      Links.partition (Net.links (System.net sys)) [ 0 ] [ 1 ]);
  let served_at = ref nan in
  Engine.schedule engine ~delay:2.0 (fun () ->
      Replica.submit_read (System.replica sys 1)
        ~deps:[ ("c", Bounds.strong) ]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun v ->
          served_at := Engine.now engine;
          Alcotest.(check bool) "sees the write" true (feq (Value.to_float v) 1.0)));
  Engine.schedule engine ~delay:10.0 (fun () -> Links.heal (Net.links (System.net sys)));
  System.run ~until:60.0 sys;
  Alcotest.(check bool) "blocked across the partition" true (!served_at > 10.0);
  Alcotest.(check bool) "eventually served" true (not (Float.is_nan !served_at));
  Alcotest.(check bool) "no violations" true (Verify.check ~lcp:true sys = [])

(* The NE budget check only weighs conits with a finite declared bound.  With
   replica 0 cut off from both peers, a write on an undeclared conit returns
   at once; a write that also weighs on a bounded conit (bound 1, so a share
   of 0.5 per peer) is held until the peers acknowledge it after the heal. *)
let test_budget_ignores_unbounded_conits () =
  let config =
    {
      Config.default with
      Config.conits = [ Conit.declare ~ne_bound:1.0 "b" ];
      antientropy_period = Some 0.5;
    }
  in
  let sys = System.create ~topology:(topo 3) ~config () in
  let engine = System.engine sys in
  Links.partition (Net.links (System.net sys)) [ 0 ] [ 1; 2 ];
  let free_at = ref nan and held_at = ref nan in
  Engine.schedule engine ~delay:1.0 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[]
        ~affects:[ unit_weight "u" ] ~op:(Op.Add ("x", 1.0))
        ~k:(fun _ -> free_at := Engine.now engine));
  Engine.schedule engine ~delay:2.0 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[]
        ~affects:[ unit_weight "u"; unit_weight "b" ] ~op:(Op.Add ("x", 1.0))
        ~k:(fun _ -> held_at := Engine.now engine));
  Engine.schedule engine ~delay:10.0 (fun () -> Links.heal (Net.links (System.net sys)));
  System.run ~until:60.0 sys;
  Alcotest.(check (float 1e-9)) "unbounded write returns at once" 1.0 !free_at;
  Alcotest.(check bool) "bounded write held until the heal" true (!held_at > 10.0);
  Alcotest.(check bool) "bounded write returns after the heal" true
    (not (Float.is_nan !held_at))

(* --- Randomized whole-system property ---------------------------------- *)

(* Any mix of bounds, topologies, workloads and partitions must yield zero
   verifier violations and post-quiescence convergence.  This is the paper's
   central promise, checked end to end. *)
let random_system_ok seed =
  let rng = Tact_util.Prng.create ~seed in
  let n = 2 + Tact_util.Prng.int rng 3 in
  let latency = 0.01 +. Tact_util.Prng.float rng 0.1 in
  let decl_ne =
    match Tact_util.Prng.int rng 3 with
    | 0 -> infinity
    | 1 -> 0.0
    | _ -> 1.0 +. Tact_util.Prng.float rng 8.0
  in
  let config =
    {
      Config.default with
      Config.conits = [ Conit.declare ~ne_bound:decl_ne "c" ];
      commit_scheme =
        (if Tact_util.Prng.bool rng then Config.Stability
         else Config.Primary (Tact_util.Prng.int rng n));
      antientropy_period = Some (0.2 +. Tact_util.Prng.float rng 2.0);
    }
  in
  let sys = System.create ~seed ~topology:(topo ~latency n) ~config () in
  let engine = System.engine sys in
  let duration = 12.0 in
  for i = 0 to n - 1 do
    let r = System.replica sys i in
    let prng = Tact_util.Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.0 ~until:duration
      (fun () ->
        let bound =
          match Tact_util.Prng.int rng 5 with
          | 0 -> Bounds.weak
          | 1 -> Bounds.make ~oe:(float_of_int (Tact_util.Prng.int rng 5)) ()
          | 2 -> Bounds.make ~st:(0.5 +. Tact_util.Prng.float rng 3.0) ()
          | 3 -> Bounds.make ~ne:(float_of_int (Tact_util.Prng.int rng 6)) ()
          | _ -> Bounds.strong
        in
        if Tact_util.Prng.bool prng then
          Replica.submit_write r
            ~deps:[ ("c", bound) ]
            ~affects:[ unit_weight "c" ]
            ~op:(Op.Add ("x", 1.0))
            ~k:ignore
        else
          Replica.submit_read r
            ~deps:[ ("c", bound) ]
            ~f:(fun db -> Db.get db "x")
            ~k:ignore)
  done;
  (* A mid-run partition of one replica, later healed. *)
  if Tact_util.Prng.bool rng && n > 2 then begin
    let victim = Tact_util.Prng.int rng n in
    let others = List.filter (fun j -> j <> victim) (List.init n Fun.id) in
    Engine.schedule engine ~delay:4.0 (fun () ->
        Links.partition (Net.links (System.net sys)) [ victim ] others);
    Engine.schedule engine ~delay:8.0 (fun () -> Links.heal (Net.links (System.net sys)))
  end;
  System.run ~until:300.0 sys;
  let violations = Verify.check sys in
  let converged = System.converged sys in
  if violations <> [] then
    QCheck.Test.fail_reportf "violations (seed %d): %s" seed
      (Verify.summarize violations);
  if not converged then QCheck.Test.fail_reportf "not converged (seed %d)" seed;
  true

let test_random_system =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random systems respect bounds and converge"
       ~count:25
       QCheck.(int_bound 100_000)
       random_system_ok)

(* Access records under weak traffic, where nothing commits and the
   tentative suffix grows all run: a record holds two vector copies, not
   the suffix, so their memory grows linearly with the accesses.  Copying
   the suffix into every record made it grow with their square (about 4x
   per doubling). *)
let test_records_memory_linear () =
  let sys = System.create ~seed:1 ~topology:(topo 3) ~config:Config.default () in
  let engine = System.engine sys in
  let dt = 0.01 in
  let drive ~from ~upto =
    for i = from to upto - 1 do
      let r = System.replica sys (i mod 3) in
      Engine.at engine ~time:(float_of_int (i + 1) *. dt) (fun () ->
          if i mod 2 = 0 then
            Replica.submit_write r ~deps:[] ~affects:[ unit_weight "c" ]
              ~op:(Op.Add ("x", 1.0)) ~k:ignore
          else
            Replica.submit_read r ~deps:[]
              ~f:(fun db -> Db.get db "x")
              ~k:ignore)
    done;
    System.run ~until:(float_of_int (upto + 1) *. dt) sys
  in
  let words () =
    List.fold_left
      (fun acc i -> acc + Obj.reachable_words (Obj.repr (Replica.records (System.replica sys i))))
      0 [ 0; 1; 2 ]
  in
  drive ~from:0 ~upto:2000;
  let w2k = words () in
  drive ~from:2000 ~upto:4000;
  let w4k = words () in
  Alcotest.(check int) "every access recorded" 4000 (List.length (System.records sys));
  Alcotest.(check int) "nothing committed" 0
    (List.fold_left
       (fun acc i -> acc + Wlog.committed_count (Replica.log (System.replica sys i)))
       0 [ 0; 1; 2 ]);
  if float_of_int w4k > 2.5 *. float_of_int w2k then
    Alcotest.failf "record memory grew %d -> %d words from 2000 to 4000 accesses" w2k w4k

(* Under [bounded_log] a system's memory depends on what is in flight, not
   on how many writes it has processed: the write logs are held to the
   truncation horizon, and each replica's budget window to its unconfirmed
   budgeted writes.  One chained generator issues the writes, so the event
   queue does not hold the workload either.  Keeping every own write ever
   accepted grew the heap about 1.8x per doubling. *)
let flat_memory ~topology ~writers ~rate ~conits ~gossip ~gossip_plan ~sync () =
  let config =
    {
      Config.default with
      Config.conits =
        List.map (fun c -> Conit.declare ~ne_bound:8.0 c) conits;
      antientropy_period = Some gossip;
      truncate_keep = Some 500;
      record_accesses = false;
      bounded_log = true;
      gossip_plan;
      sync;
      batch_flush = 0.05;
    }
  in
  let sys = System.create ~seed:5 ~track_writes:false ~topology ~config () in
  let engine = System.engine sys in
  let issued = ref 0 and target = ref 0 in
  let rec next () =
    if !issued < !target then begin
      let k = !issued in
      incr issued;
      Replica.submit_write (System.replica sys (k mod writers)) ~deps:[]
        ~affects:[ unit_weight (Printf.sprintf "c%d" (k / writers mod 4)) ]
        ~op:(Op.Add (Printf.sprintf "x%d" (k mod 16), 1.0))
        ~k:ignore;
      Engine.schedule engine ~delay:(1.0 /. rate) next
    end
  in
  let drive upto =
    (* Issue up to [upto] writes, then let the system quiesce: logs commit
       and truncate to the horizon, and the budget windows empty. *)
    let until = System.now sys +. (float_of_int (upto - !issued) /. rate) +. 20.0 in
    target := upto;
    Engine.schedule engine ~delay:(1.0 /. rate) next;
    System.run ~until sys
  in
  let words () = Obj.reachable_words (Obj.repr sys) in
  drive 20_000;
  let w20k = words () in
  drive 40_000;
  let w40k = words () in
  Alcotest.(check int) "every write issued" 40_000 !issued;
  if float_of_int w40k > 1.1 *. float_of_int w20k then
    Alcotest.failf "system memory grew %d -> %d words from 20k to 40k writes"
      w20k w40k

let wan_topology =
  Topology.clustered ~clusters:2 ~per_cluster:2 ~local:0.002 ~wan:0.08
    ~bandwidth:500_000.0

let test_flat_memory_wan_budgeted () =
  flat_memory ~topology:wan_topology ~writers:4 ~rate:100.0
    ~conits:[ "c0"; "c1"; "c2"; "c3" ] ~gossip:1.0 ~gossip_plan:None ~sync:Config.Per_write ()

let test_flat_memory_wan_unbounded () =
  flat_memory ~topology:wan_topology ~writers:4 ~rate:100.0 ~conits:[]
    ~gossip:1.0 ~gossip_plan:None ~sync:Config.Per_write ()

let test_flat_memory_ring () =
  let n = 12 in
  flat_memory
    ~topology:(Topology.uniform ~n ~latency:0.02 ~bandwidth:1e9)
    ~writers:2 ~rate:1000.0 ~conits:[] ~gossip:0.1
    ~gossip_plan:(Some (fun i -> [| (i + 1) mod n |]))
    ~sync:Config.Batched ()

let base_suite =
  [
    Alcotest.test_case "session consumes spec" `Quick test_session_consumes_spec;
    Alcotest.test_case "read your writes locally" `Quick test_read_your_writes_locally;
    Alcotest.test_case "unknown procedure conflicts" `Quick test_unknown_procedure_conflicts;
    Alcotest.test_case "access records complete" `Quick test_access_records_complete;
    Alcotest.test_case "primary commits everything" `Quick test_primary_commits_everything;
    Alcotest.test_case "stability order canonical" `Quick test_stability_commit_order_is_canonical;
    Alcotest.test_case "partition blocks stability" `Quick test_partition_blocks_stability_commit;
    Alcotest.test_case "strong read across partition" `Quick test_partitioned_strong_read_blocks_then_serves;
    Alcotest.test_case "budget ignores unbounded conits" `Quick test_budget_ignores_unbounded_conits;
    test_random_system;
    Alcotest.test_case "records memory linear" `Quick test_records_memory_linear;
    Alcotest.test_case "flat memory: budgeted WAN" `Quick test_flat_memory_wan_budgeted;
    Alcotest.test_case "flat memory: unbounded WAN" `Quick test_flat_memory_wan_unbounded;
    Alcotest.test_case "flat memory: gossip ring" `Quick test_flat_memory_ring;
  ]



(* --- Deadlines (availability knob) -------------------------------------- *)

let test_deadline_timeout_under_partition () =
  let config = { Config.default with Config.conits = [ Conit.declare "c" ] } in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  Links.partition (Net.links (System.net sys)) [ 0 ] [ 1 ];
  let timed_out = ref false and served = ref false in
  Engine.schedule engine ~delay:1.0 (fun () ->
      Replica.submit_read ~deadline:3.0
        ~on_timeout:(fun () -> timed_out := true)
        (System.replica sys 1)
        ~deps:[ ("c", Bounds.strong) ]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun _ -> served := true));
  System.run ~until:30.0 sys;
  Alcotest.(check bool) "timed out" true !timed_out;
  Alcotest.(check bool) "never served" false !served;
  Alcotest.(check int) "timeout counted" 1 (System.total_stats sys).Replica.timeouts

let test_deadline_not_fired_when_served () =
  let config = { Config.default with Config.conits = [ Conit.declare "c" ] } in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  let timed_out = ref false and served = ref false in
  Engine.schedule engine ~delay:1.0 (fun () ->
      Replica.submit_read ~deadline:10.0
        ~on_timeout:(fun () -> timed_out := true)
        (System.replica sys 1)
        ~deps:[ ("c", Bounds.strong) ]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun _ -> served := true));
  System.run ~until:30.0 sys;
  Alcotest.(check bool) "served within deadline" true !served;
  Alcotest.(check bool) "no timeout" false !timed_out

(* One sweep per replica serves every deadline.  At a replica cut off by a
   partition, strong reads with deadlines 5, 2 and 8 park in that order, so
   the sweep is re-armed earlier once and later twice.  Each still times out
   at exactly its own virtual time, once.  A fourth read parks on a session
   vector that a local write at t = 3 covers: it is served in time and never
   times out. *)
let test_deadline_sweep_out_of_order () =
  let config = { Config.default with Config.conits = [ Conit.declare "c" ] } in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  let r1 = System.replica sys 1 in
  Links.partition (Net.links (System.net sys)) [ 0 ] [ 1 ];
  let fired = ref [] in
  let served = ref false and late = ref false in
  Engine.schedule engine ~delay:1.0 (fun () ->
      List.iter
        (fun d ->
          Replica.submit_read ~deadline:d
            ~on_timeout:(fun () -> fired := (d, Engine.now engine) :: !fired)
            r1 ~deps:[ ("c", Bounds.strong) ]
            ~f:(fun db -> Db.get db "x")
            ~k:(fun _ -> Alcotest.fail "strong read served across the partition"))
        [ 5.0; 2.0; 8.0 ];
      let require = Version_vector.create 2 in
      Version_vector.set require 1 1;
      Replica.submit_read ~require ~deadline:6.0
        ~on_timeout:(fun () -> late := true)
        r1 ~deps:[] ~f:(fun db -> Db.get db "x")
        ~k:(fun _ -> served := true));
  Engine.schedule engine ~delay:3.0 (fun () ->
      Replica.submit_write r1 ~deps:[] ~affects:[] ~op:(Op.Add ("x", 1.0))
        ~k:ignore);
  System.run ~until:30.0 sys;
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "each at its own deadline, once"
    [ (2.0, 2.0); (5.0, 5.0); (8.0, 8.0) ]
    (List.rev !fired);
  Alcotest.(check int) "timeouts" 3 (Replica.stats r1).Replica.timeouts;
  Alcotest.(check bool) "session read served" true !served;
  Alcotest.(check bool) "session read never timed out" false !late

(* An access served before its deadline leaves nothing behind: 2,000 strict
   reads, each served within one pull round, all carrying 30 s deadlines.
   Once they are served, at most the one armed sweep is queued (a timer per
   access would leave 2,000). *)
let test_deadline_served_leaves_no_timer () =
  let n = 2_000 in
  let config = { Config.default with Config.conits = [ Conit.declare "c" ] } in
  let sys = System.create ~topology:(topo ~latency:0.01 2) ~config () in
  let engine = System.engine sys in
  let r1 = System.replica sys 1 in
  let served = ref 0 in
  for i = 1 to n do
    Engine.at engine ~time:(0.001 *. float_of_int i) (fun () ->
        Replica.submit_read
          ~deadline:(Engine.now engine +. 30.0)
          ~on_timeout:(fun () -> Alcotest.fail "strict read timed out")
          r1 ~deps:[ ("c", Bounds.strong) ]
          ~f:(fun db -> Db.get db "x")
          ~k:(fun _ -> incr served))
  done;
  System.run ~until:(0.001 *. float_of_int n +. 1.0) sys;
  Alcotest.(check int) "all served" n !served;
  let deadlines =
    Array.fold_left
      (fun acc (c : Engine.choice) ->
        match c.Engine.c_label with
        | Some { Engine.tag = "deadline"; _ } -> acc + 1
        | _ -> acc)
      0 (Engine.pending_choices engine)
  in
  if deadlines > 1 then
    Alcotest.failf "%d deadline events still queued after every read was served"
      deadlines

(* A timeout callback that submits again, with a deadline already past, does
   not disturb the sweep: the new access times out in a later event, once. *)
let test_deadline_sweep_reentrant () =
  let config = { Config.default with Config.conits = [ Conit.declare "c" ] } in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  let r1 = System.replica sys 1 in
  Links.partition (Net.links (System.net sys)) [ 0 ] [ 1 ];
  let strong_read ~deadline ~on_timeout =
    Replica.submit_read ~deadline ~on_timeout r1
      ~deps:[ ("c", Bounds.strong) ]
      ~f:(fun db -> Db.get db "x")
      ~k:(fun _ -> Alcotest.fail "strong read served across the partition")
  in
  let in_first = ref false and second = ref [] in
  Engine.schedule engine ~delay:1.0 (fun () ->
      strong_read ~deadline:2.0 ~on_timeout:(fun () ->
          in_first := true;
          strong_read ~deadline:1.5 ~on_timeout:(fun () ->
              second := (!in_first, Engine.now engine) :: !second);
          in_first := false));
  System.run ~until:30.0 sys;
  (match !second with
  | [ (inside, at) ] ->
    Alcotest.(check bool) "in a later event" false inside;
    Alcotest.(check (float 0.0)) "at the same virtual time" 2.0 at
  | l -> Alcotest.failf "second access timed out %d times" (List.length l));
  Alcotest.(check int) "timeouts" 2 (Replica.stats r1).Replica.timeouts;
  Alcotest.(check int) "nothing parked" 0 (Replica.pending_count r1)

let deadline_suite =
  [
    Alcotest.test_case "deadline fires under partition" `Quick test_deadline_timeout_under_partition;
    Alcotest.test_case "deadline unused when served" `Quick test_deadline_not_fired_when_served;
    Alcotest.test_case "deadline sweep: out of order" `Quick
      test_deadline_sweep_out_of_order;
    Alcotest.test_case "deadline sweep: no timer left" `Quick
      test_deadline_served_leaves_no_timer;
    Alcotest.test_case "deadline sweep: re-entrant" `Quick
      test_deadline_sweep_reentrant;
  ]



(* --- Config validation ---------------------------------------------------- *)

let test_config_validation () =
  let ok c = Config.validate ~n:3 c = Ok () in
  Alcotest.(check bool) "default valid" true (ok Config.default);
  Alcotest.(check bool) "bad primary" false
    (ok { Config.default with Config.commit_scheme = Config.Primary 7 });
  Alcotest.(check bool) "bad gossip period" false
    (ok { Config.default with Config.antientropy_period = Some 0.0 });
  Alcotest.(check bool) "bad retry" false
    (ok { Config.default with Config.retry_period = 0.0 });
  Alcotest.(check bool) "nan gossip period" false
    (ok { Config.default with Config.antientropy_period = Some Float.nan });
  Alcotest.(check bool) "nan retry" false
    (ok { Config.default with Config.retry_period = Float.nan });
  Alcotest.(check bool) "nan batch flush" false
    (ok { Config.default with Config.sync = Config.Batched; batch_flush = Float.nan });
  Alcotest.(check bool) "negative retention" false
    (ok { Config.default with Config.truncate_keep = Some (-1) });
  Alcotest.(check bool) "duplicate conits" false
    (ok { Config.default with Config.conits = [ Conit.declare "c"; Conit.declare "c" ] });
  (let noop _ _ = Op.Applied Value.Nil in
   Alcotest.(check bool) "duplicate procedures" false
     (ok { Config.default with Config.procs = [ ("p", noop); ("q", noop); ("p", noop) ] });
   Alcotest.(check bool) "distinct procedures" true
     (ok { Config.default with Config.procs = [ ("p", noop); ("q", noop) ] }));
  Alcotest.(check bool) "negative bound" false
    (ok { Config.default with Config.conits = [ Conit.declare ~ne_bound:(-1.0) "c" ] });
  Alcotest.(check bool) "negative oe bound" false
    (ok { Config.default with Config.conits = [ Conit.declare ~oe_bound:(-1.0) "c" ] });
  Alcotest.(check bool) "nan st bound" false
    (ok { Config.default with Config.conits = [ Conit.declare ~st_bound:Float.nan "c" ] });
  Alcotest.(check bool) "gossip target out of range" false
    (ok { Config.default with Config.gossip_plan = Some (fun _ -> [| 3 |]) });
  Alcotest.(check bool) "gossip self target" false
    (ok { Config.default with Config.gossip_plan = Some (fun i -> [| i |]) });
  Alcotest.(check bool) "gossip ring valid" true
    (ok { Config.default with Config.gossip_plan = Some (fun i -> [| (i + 1) mod 3 |]) });
  Alcotest.(check bool) "system rejects invalid" true
    (try
       ignore
         (System.create ~topology:(topo 3)
            ~config:{ Config.default with Config.commit_scheme = Config.Primary 7 }
            ());
       false
     with Invalid_argument _ -> true)

let validation_suite =
  [ Alcotest.test_case "config validation" `Quick test_config_validation ]



(* --- Gossip plans ----------------------------------------------------------- *)

let test_gossip_plan_respected () =
  (* A plan that only ever gossips 0 -> 1: replica 2 stays in the dark. *)
  let config =
    {
      Config.default with
      Config.antientropy_period = Some 0.2;
      gossip_plan = Some (fun i -> if i = 0 then [| 1 |] else [||]);
    }
  in
  let sys = System.create ~topology:(topo 3) ~config () in
  let engine = System.engine sys in
  Engine.schedule engine ~delay:0.1 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[] ~affects:[ unit_weight "c" ]
        ~op:(Op.Add ("x", 1.0)) ~k:ignore);
  System.run ~until:20.0 sys;
  Alcotest.(check int) "replica 1 heard" 1
    (Wlog.num_known (Replica.log (System.replica sys 1)));
  Alcotest.(check int) "replica 2 did not" 0
    (Wlog.num_known (Replica.log (System.replica sys 2)))

let test_gossip_plan_validated () =
  let config =
    {
      Config.default with
      Config.antientropy_period = Some 0.2;
      gossip_plan = Some (fun _ -> [| 99 |]);
    }
  in
  (* Config.validate probes the plan for every replica id, so the bad plan
     is rejected at creation, before any replica starts. *)
  Alcotest.(check bool) "bad plan rejected at create" true
    (try
       ignore (System.create ~topology:(topo 3) ~config ());
       false
     with Invalid_argument _ -> true)

(* A parked read resolves its conits at submission, before any write has
   touched them; the state it holds must still see the order weight that a
   later write brings.  The read at replica 0 waits for replica 1's first
   write (session vector) and bounds OE at 0 on the conit that write
   weighs on.  Replica 2 is cut off, so the write cannot commit at 0 before
   the heal at t = 5. *)
let test_parked_read_sees_later_write () =
  let sys = System.create ~topology:(topo 3) ~config:Config.default () in
  let engine = System.engine sys in
  let r0 = System.replica sys 0 and r1 = System.replica sys 1 in
  let links = Net.links (System.net sys) in
  Links.partition links [ 0; 1 ] [ 2 ];
  let served = ref None in
  Engine.at engine ~time:1.0 (fun () ->
      let require = Version_vector.create 3 in
      Version_vector.set require 1 1;
      Replica.submit_read ~require r0
        ~deps:[ ("fresh", Bounds.make ~oe:0.0 ()) ]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun _ -> served := Some (Engine.now engine)));
  Engine.at engine ~time:2.0 (fun () ->
      Replica.submit_write r1 ~deps:[] ~affects:[ unit_weight "fresh" ]
        ~op:(Op.Add ("x", 1.0)) ~k:ignore);
  Engine.at engine ~time:5.0 (fun () ->
      let log = Replica.log r0 in
      Alcotest.(check int) "the write reached replica 0" 1
        (Version_vector.get (Wlog.vector log) 1);
      Alcotest.(check (float 0.0)) "its order weight is tentative" 1.0
        (Wlog.tentative_oweight log "fresh");
      Alcotest.(check bool) "the read is held" true (Option.is_none !served);
      Links.heal links);
  System.run ~until:30.0 sys;
  match !served with
  | Some t -> Alcotest.(check bool) "served after the heal" true (t > 5.0)
  | None -> Alcotest.fail "the read was never served"

(* Under the primary scheme a write served by a pump's scan can commit on
   the spot, and that commit can unblock an access the same scan already
   kept.  Replica 1 (not the primary) is cut off from both peers and fed by
   hand.  It holds replica 2's w2.1 on conit "c" tentatively, and knows a
   commit order [w1.1; w2.1] that waits for its own first write.  A read
   bounding OE on "c" at 0 parks first; a write requiring w2.2 parks behind
   it.  w2.2's arrival serves the write, and accepting it as w1.1 commits
   w1.1 and w2.1, after the scan kept the read.  The next message is an
   Ack, which changes nothing the read waits on; the read must be served on
   it all the same. *)
let test_served_write_unblocks_kept_read () =
  let config = { Config.default with Config.commit_scheme = Config.Primary 0 } in
  let sys = System.create ~topology:(topo 3) ~config () in
  let engine = System.engine sys in
  let r1 = System.replica sys 1 in
  Links.partition (Net.links (System.net sys)) [ 1 ] [ 0; 2 ];
  let vec entries =
    let v = Version_vector.create 3 in
    List.iteri (Version_vector.set v) entries;
    v
  in
  let write ~origin ~seq ~t conit =
    Write.make ~id:{ Write.origin; seq } ~accept_time:t ~op:(Op.Add ("x", 1.0))
      ~affects:[ unit_weight conit ]
  in
  let gossip ~from ?(csn = []) writes vector =
    Wire.Transfer
      { from; writes; vector; cover = Array.make 3 0.0; csn_start = 0; csn;
        rate = 0.0; kind = `Gossip }
  in
  let served = ref false and written = ref false in
  Engine.at engine ~time:1.0 (fun () ->
      let log = Replica.log r1 in
      Replica.receive r1 ~src:2 (gossip ~from:2 [ write ~origin:2 ~seq:1 ~t:0.5 "c" ] (vec [ 0; 0; 1 ]));
      Replica.receive r1 ~src:0
        (gossip ~from:0
           ~csn:[ { Write.origin = 1; seq = 1 }; { Write.origin = 2; seq = 1 } ]
           [] (vec [ 0; 0; 0 ]));
      Replica.submit_read r1
        ~deps:[ ("c", Bounds.make ~oe:0.0 ()) ]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun _ -> served := true);
      Replica.submit_write r1 ~require:(vec [ 0; 0; 2 ]) ~deps:[]
        ~affects:[ unit_weight "d" ] ~op:(Op.Add ("y", 1.0))
        ~k:(fun _ -> written := true);
      Alcotest.(check int) "both accesses parked" 2 (Replica.pending_count r1);
      Replica.receive r1 ~src:2 (gossip ~from:2 [ write ~origin:2 ~seq:2 ~t:0.6 "d" ] (vec [ 0; 0; 2 ]));
      Alcotest.(check bool) "the write was served" true !written;
      Alcotest.(check int) "its acceptance committed w1.1 and w2.1" 2
        (Wlog.committed_count log);
      Alcotest.(check (float 0.0)) "nothing on c is tentative" 0.0
        (Wlog.tentative_oweight log "c");
      Alcotest.(check bool) "the scan had already kept the read" false !served;
      Replica.receive r1 ~src:0
        (Wire.Ack { from = 0; vector = vec [ 0; 0; 0 ]; csn_known = 0 });
      Alcotest.(check bool) "the next message serves the read" true !served;
      Alcotest.(check int) "nothing left parked" 0 (Replica.pending_count r1));
  System.run ~until:1.5 sys;
  Alcotest.(check bool) "the read was served" true !served

let gossip_suite =
  [
    Alcotest.test_case "gossip plan respected" `Quick test_gossip_plan_respected;
    Alcotest.test_case "gossip plan validated" `Quick test_gossip_plan_validated;
    Alcotest.test_case "parked read sees later write" `Quick
      test_parked_read_sees_later_write;
    Alcotest.test_case "served write unblocks a kept read" `Quick
      test_served_write_unblocks_kept_read;
  ]

let suite = base_suite @ deadline_suite @ validation_suite @ gossip_suite
