(* The long-haul adversarial soak: everything at once — eight replicas, mixed
   bounds, both commit schemes' stressors, truncation, partitions, crashes,
   message loss — with the full correctness bar at the end: zero verifier
   violations, convergence, full commitment. *)

open Tact_util
open Tact_sim
open Tact_store
open Tact_core
open Tact_replica

let feq a b = Float.abs (a -. b) < 1e-9

let soak ~seed ~scheme () =
  let n = 8 in
  let duration = 60.0 in
  let topology =
    Topology.clustered ~clusters:2 ~per_cluster:4 ~local:0.003 ~wan:0.07
      ~bandwidth:500_000.0
  in
  let config =
    {
      Config.default with
      Config.conits =
        [ Conit.declare ~ne_bound:6.0 "hot"; Conit.unconstrained "cold" ];
      commit_scheme = scheme;
      antientropy_period = Some 0.7;
      truncate_keep = Some 500;
    }
  in
  let sys = System.create ~seed ~loss:0.1 ~topology ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:(seed * 31) in
  let issued = ref 0 and served = ref 0 and timeouts = ref 0 in
  for i = 0 to n - 1 do
    let r = System.replica sys i in
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.2 ~until:duration
      (fun () ->
        incr issued;
        let conit = if Prng.bool prng then "hot" else "cold" in
        let bound =
          match Prng.int prng 4 with
          | 0 -> Bounds.weak
          | 1 -> Bounds.make ~oe:(float_of_int (Prng.int prng 8)) ()
          | 2 -> Bounds.make ~st:(1.0 +. Prng.float prng 5.0) ()
          | _ -> Bounds.make ~ne:(float_of_int (2 + Prng.int prng 8)) ()
        in
        if Prng.bool prng then
          Replica.submit_write r
            ~deps:[ (conit, bound) ]
            ~deadline:(Engine.now engine +. 45.0)
            ~on_timeout:(fun () -> incr timeouts)
            ~affects:[ { Write.conit; nweight = 1.0; oweight = 1.0 } ]
            ~op:(Op.Add ("x", 1.0))
            ~k:(fun _ -> incr served)
        else
          Replica.submit_read r
            ~deps:[ (conit, bound) ]
            ~deadline:(Engine.now engine +. 45.0)
            ~on_timeout:(fun () -> incr timeouts)
            ~f:(fun db -> Db.get db "x")
            ~k:(fun _ -> incr served))
  done;
  (* Fault schedule: a cross-cluster partition, a crash, staggered heals. *)
  Engine.schedule engine ~delay:15.0 (fun () ->
      Links.partition (Net.links (System.net sys)) [ 0; 1; 2; 3 ] [ 4; 5; 6; 7 ]);
  Engine.schedule engine ~delay:25.0 (fun () -> Links.heal (Net.links (System.net sys)));
  Engine.schedule engine ~delay:35.0 (fun () -> Replica.crash (System.replica sys 5));
  Engine.schedule engine ~delay:45.0 (fun () -> Replica.recover (System.replica sys 5));
  System.run ~until:(duration +. 240.0) sys;
  (* The bar. *)
  let violations = Verify.check sys in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: no violations (%s)" seed (Verify.summarize violations))
    true (violations = []);
  Alcotest.(check bool) "converged" true (System.converged sys);
  Alcotest.(check bool) "some work happened" true (!issued > 200);
  Alcotest.(check int) "every access served or timed out" !issued
    (!served + !timeouts);
  (* Fully committed everywhere after quiescence. *)
  let total = System.write_count sys in
  for i = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d committed all" i)
      total
      (Wlog.committed_count (Replica.log (System.replica sys i)))
  done;
  (* And the canonical value is agreed. *)
  let v0 = Db.get_float (Replica.db (System.replica sys 0)) "x" in
  Alcotest.(check bool) "value consistent" true
    (List.for_all
       (fun i -> feq (Db.get_float (Replica.db (System.replica sys i)) "x") v0)
       (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "soak: stability scheme" `Slow (soak ~seed:7 ~scheme:Config.Stability);
    Alcotest.test_case "soak: primary scheme" `Slow (soak ~seed:8 ~scheme:(Config.Primary 2));
    Alcotest.test_case "soak: stability, other seed" `Slow (soak ~seed:99 ~scheme:Config.Stability);
  ]
