(* The systematic interleaving checker: engine choice points, the explorer's
   exhaustive pass over a clean scenario, counterexample JSON round-trips,
   trace replay determinism, and the planted-bug mutation test (an accept-path
   order-error off-by-one that only a reordered schedule can expose). *)

open Tact_core
open Tact_store
open Tact_sim
open Tact_replica
open Tact_check

(* --- engine choice points --------------------------------------------- *)

let test_engine_chooser_default_order () =
  (* A chooser that always picks index 0 must reproduce heap order exactly. *)
  let run_with chooser =
    let e = Engine.create () in
    let order = ref [] in
    let ev name = fun () -> order := name :: !order in
    Engine.schedule e ~delay:0.3 (ev "c");
    Engine.schedule e ~delay:0.1 (ev "a");
    Engine.schedule e ~delay:0.2 (ev "b");
    if chooser then Engine.set_scheduler e (Some (fun ~now:_ _ -> 0));
    Engine.run e;
    List.rev !order
  in
  Alcotest.(check (list string))
    "chooser index 0 = heap order" (run_with false) (run_with true)

let test_engine_chooser_reorder () =
  let e = Engine.create () in
  let order = ref [] in
  let ev name = fun () -> order := name :: !order in
  Engine.schedule e ~delay:0.1 ~label:{ Engine.actor = 0; tag = "x" } (ev "first");
  Engine.schedule e ~delay:0.2 ~label:{ Engine.actor = 1; tag = "x" } (ev "second");
  (* Always fire the last pending event: reverses the two dispatches. *)
  Engine.set_scheduler e (Some (fun ~now:_ cs -> Array.length cs - 1));
  Engine.run e;
  Alcotest.(check (list string)) "reversed" [ "second"; "first" ] (List.rev !order);
  (* Firing a later event first advances the clock to it; the earlier event
     then fires late, and the clock never runs backwards. *)
  Alcotest.(check bool) "clock at max" true (Engine.now e >= 0.2)

let test_engine_chooser_migration () =
  (* Events scheduled in heap mode survive installing and removing a
     strategy. *)
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> incr count)
  done;
  Engine.set_scheduler e (Some (fun ~now:_ _ -> 0));
  Alcotest.(check int) "visible as choices" 5 (Array.length (Engine.pending_choices e));
  Engine.set_scheduler e None;
  Engine.run e;
  Alcotest.(check int) "all fired after migration back" 5 !count

let test_engine_chooser_bad_index () =
  let e = Engine.create () in
  Engine.schedule e ~delay:0.1 ignore;
  Engine.set_scheduler e (Some (fun ~now:_ _ -> 7));
  Alcotest.(check bool) "out-of-range choice rejected" true
    (try
       Engine.run e;
       false
     with Invalid_argument _ -> true)

(* --- clean scenario: exhaustive exploration finds nothing -------------- *)

let test_explore_clean_scenario () =
  let sc =
    match Scenario.find "weak-converge" with
    | Some sc -> sc
    | None -> Alcotest.fail "scenario catalogue missing weak-converge"
  in
  let o = Explorer.explore ~options:Explorer.smoke_options sc in
  Alcotest.(check bool) "exhausted" true o.Explorer.stats.Explorer.exhausted;
  Alcotest.(check bool) "no counterexample" true
    (Option.is_none o.Explorer.counterexample);
  Alcotest.(check bool) "explored more than the default schedule" true
    (o.Explorer.stats.Explorer.schedules > 1)

(* --- replay determinism ------------------------------------------------ *)

let test_replay_determinism () =
  (* The same deviation map executed twice yields bit-identical final states
     (same fingerprint) and the same per-step fingerprints. *)
  let sc =
    match Scenario.find "oe-stability" with
    | Some sc -> sc
    | None -> Alcotest.fail "scenario catalogue missing oe-stability"
  in
  (* Perturb the default order with a real deviation so determinism is
     checked on a non-trivial schedule: deviate to the second pending event
     at step 3 of the first run. *)
  let probe = Runner.run sc ~deviations:[] in
  let deviations =
    if Array.length probe.Runner.steps > 3
       && Array.length probe.Runner.steps.(3).Runner.ready > 1
    then
      [ (3, probe.Runner.steps.(3).Runner.ready.(1).Engine.c_seq) ]
    else []
  in
  let r1 = Runner.run sc ~deviations in
  let r2 = Runner.run sc ~deviations in
  Alcotest.(check bool) "final fingerprints equal" true
    (Fingerprint.equal r1.Runner.final_fp r2.Runner.final_fp);
  Alcotest.(check int) "same step count" (Array.length r1.Runner.steps)
    (Array.length r2.Runner.steps);
  Array.iteri
    (fun i (s1 : Runner.step) ->
      let s2 = r2.Runner.steps.(i) in
      if not (Fingerprint.equal s1.Runner.fp s2.Runner.fp) then
        Alcotest.failf "step %d fingerprints differ" i;
      if s1.Runner.chosen <> s2.Runner.chosen then
        Alcotest.failf "step %d choices differ" i)
    r1.Runner.steps;
  Alcotest.(check int) "no divergence" 0 (r1.Runner.diverged + r2.Runner.diverged)

(* --- counterexample JSON round-trip ------------------------------------ *)

let test_trace_json_roundtrip () =
  let cx =
    {
      Counterexample.scenario = "oe-stability";
      deviations = [ (3, 17); (9, 4) ];
      violations = [ "bounds: read at replica 1 violated oe <= 0.5" ];
      final_fp = 0x1234_5678_9abc_def0L;
      steps = 14;
    }
  in
  let json = Counterexample.to_json cx in
  let text = Json.to_string json in
  match Result.bind (Json.parse text) Counterexample.of_json with
  | Error m -> Alcotest.failf "round-trip failed: %s" m
  | Ok cx' ->
    Alcotest.(check string) "scenario" cx.Counterexample.scenario
      cx'.Counterexample.scenario;
    Alcotest.(check (list (pair int int)))
      "deviations" cx.Counterexample.deviations cx'.Counterexample.deviations;
    Alcotest.(check (list string))
      "violations" cx.Counterexample.violations cx'.Counterexample.violations;
    Alcotest.(check bool) "fingerprint" true
      (Fingerprint.equal cx.Counterexample.final_fp cx'.Counterexample.final_fp);
    Alcotest.(check int) "steps" cx.Counterexample.steps cx'.Counterexample.steps

(* --- the planted-bug mutation test ------------------------------------- *)

(* An accept-path off-by-one: [Oe_slack] makes the replica admit
   accesses whose tentative order error exceeds the requested bound by up to
   the slack.  In the default schedule the anti-entropy delivery at ~0.35
   commits everything before the read at 0.40, so the bug is invisible; only
   a schedule that fires the read ahead of that delivery serves it over-bound.
   The checker must find that reordering, minimize it, and produce a
   replayable trace. *)
let planted_scenario ~slack =
  {
    Scenario.name = "planted-oe-slack";
    summary = "accept path wrongly grants OE slack; visible only reordered";
    replicas = 2;
    horizon = 0.5;
    drain = 6.0;
    checks =
      {
        Scenario.all_checks with
        Scenario.lcp = false;
        ext_compat = false;
        causal_compat = false;
        theorem1 = false;
      };
    build =
      (fun () ->
        let config =
          {
            Config.default with
            Config.conits = [ Conit.declare ~oe_bound:0.5 "x"; Conit.declare "y" ];
            antientropy_period = Some 0.3;
            retry_period = 0.5;
          }
        in
        let sys =
          System.create ~seed:7 ~jitter:0.0 ~loss:0.0
            ~mutation:(Mutation.Oe_slack slack)
            ~topology:(Topology.uniform ~n:2 ~latency:0.05 ~bandwidth:1e9)
            ~config ()
        in
        let engine = System.engine sys in
        let wr rid time =
          Engine.at engine ~label:{ Engine.actor = rid; tag = "client" } ~time
            (fun () ->
              Replica.submit_write (System.replica sys rid) ~deps:[]
                ~affects:[ { Write.conit = "x"; nweight = 1.0; oweight = 1.0 } ]
                ~op:(Op.Add ("x", 1.0)) ~k:ignore)
        in
        wr 0 0.05;
        wr 1 0.10;
        Engine.at engine ~label:{ Engine.actor = 1; tag = "client" } ~time:0.40
          (fun () ->
            Replica.submit_read (System.replica sys 1)
              ~deps:[ ("x", Bounds.make ~oe:0.5 ()) ]
              ~f:(fun db -> Db.get db "x")
              ~k:ignore);
        sys);
  }

let test_mutation_found () =
  let sc = planted_scenario ~slack:1.0 in
  (* The default schedule must NOT expose the planted bug (otherwise this
     would be testing nothing about systematic exploration). *)
  let default = Runner.run sc ~deviations:[] in
  Alcotest.(check (list string))
    "default schedule clean" [] default.Runner.violations;
  (* ... but exploration must. *)
  let o = Explorer.explore ~options:Explorer.default_options sc in
  match o.Explorer.counterexample with
  | None -> Alcotest.fail "explorer missed the planted accept-path bug"
  | Some cx ->
    Alcotest.(check bool) "non-trivial counterexample" true
      (cx.Counterexample.deviations <> []);
    Alcotest.(check bool) "minimized to a single deviation" true
      (List.length cx.Counterexample.deviations = 1);
    Alcotest.(check bool) "violations recorded" true
      (cx.Counterexample.violations <> []);
    (* The trace replays deterministically (twice) under the sanitizer. *)
    let v1 = Counterexample.replay ~sanitize:true sc cx in
    let v2 = Counterexample.replay ~sanitize:true sc cx in
    Alcotest.(check bool) "replay reproduces the violation" true
      v1.Counterexample.reproduced;
    Alcotest.(check bool) "replay matches recorded fingerprint" true
      v1.Counterexample.fingerprint_match;
    Alcotest.(check bool) "second replay identical" true
      (Fingerprint.equal v1.Counterexample.result.Runner.final_fp
         v2.Counterexample.result.Runner.final_fp);
    Alcotest.(check int) "replays do not diverge" 0
      (v1.Counterexample.result.Runner.diverged
      + v2.Counterexample.result.Runner.diverged);
    (* Serialize and reload: the trace survives the JSON round-trip and
       still replays. *)
    (match
       Result.bind
         (Json.parse (Json.to_string (Counterexample.to_json cx)))
         Counterexample.of_json
     with
    | Error m -> Alcotest.failf "trace JSON round-trip failed: %s" m
    | Ok cx' ->
      let v3 = Counterexample.replay sc cx' in
      Alcotest.(check bool) "reloaded trace still reproduces" true
        v3.Counterexample.reproduced)

let test_parallel_determinism () =
  (* The headline PR-4 guarantee: jobs:4 must report the same verdict, the
     same statistics, and a bit-identical minimized counterexample as
     jobs:1 — on both a violating and a clean space. *)
  let stats =
    Alcotest.testable
      (Fmt.of_to_string (fun (s : Explorer.stats) ->
           Printf.sprintf
             "{schedules=%d; deduped=%d; pruned=%d; max_steps=%d; diverged=%d; exhausted=%b}"
             s.Explorer.schedules s.Explorer.deduped s.Explorer.pruned
             s.Explorer.max_steps s.Explorer.diverged s.Explorer.exhausted))
      ( = )
  in
  let sc = planted_scenario ~slack:1.0 in
  let seq = Explorer.explore ~options:Explorer.default_options ~jobs:1 sc in
  let par = Explorer.explore ~options:Explorer.default_options ~jobs:4 sc in
  Alcotest.check stats "planted: identical statistics" seq.Explorer.stats
    par.Explorer.stats;
  (match (seq.Explorer.counterexample, par.Explorer.counterexample) with
  | Some a, Some b ->
    Alcotest.(check (list (pair int int)))
      "identical minimized deviation map" a.Counterexample.deviations
      b.Counterexample.deviations;
    Alcotest.(check (list string))
      "identical violations" a.Counterexample.violations
      b.Counterexample.violations;
    Alcotest.(check bool) "identical final fingerprint" true
      (Fingerprint.equal a.Counterexample.final_fp b.Counterexample.final_fp);
    Alcotest.(check int) "identical step count" a.Counterexample.steps
      b.Counterexample.steps;
    (* Byte-identical, literally: the serialized traces match. *)
    Alcotest.(check string) "identical serialized trace"
      (Json.to_string (Counterexample.to_json a))
      (Json.to_string (Counterexample.to_json b))
  | None, None -> Alcotest.fail "both job counts missed the planted bug"
  | Some _, None -> Alcotest.fail "jobs:4 missed the planted bug"
  | None, Some _ -> Alcotest.fail "jobs:1 missed the planted bug");
  (* Clean space: identical exhaustion stats, no counterexample. *)
  let sc = planted_scenario ~slack:0.0 in
  let seq = Explorer.explore ~options:Explorer.default_options ~jobs:1 sc in
  let par = Explorer.explore ~options:Explorer.default_options ~jobs:4 sc in
  Alcotest.check stats "clean: identical statistics" seq.Explorer.stats
    par.Explorer.stats;
  Alcotest.(check bool) "clean at any job count" true
    (Option.is_none seq.Explorer.counterexample
    && Option.is_none par.Explorer.counterexample)

let test_mutation_needs_the_fault () =
  (* Same scenario without the slack: the space is clean, proving the
     counterexample above is the planted bug and not a latent protocol
     defect. *)
  let sc = planted_scenario ~slack:0.0 in
  let o = Explorer.explore ~options:Explorer.default_options sc in
  Alcotest.(check bool) "no violation without the planted fault" true
    (Option.is_none o.Explorer.counterexample);
  Alcotest.(check bool) "space exhausted" true
    o.Explorer.stats.Explorer.exhausted

let suite =
  [
    Alcotest.test_case "engine chooser default order" `Quick
      test_engine_chooser_default_order;
    Alcotest.test_case "engine chooser reorder" `Quick test_engine_chooser_reorder;
    Alcotest.test_case "engine chooser migration" `Quick
      test_engine_chooser_migration;
    Alcotest.test_case "engine chooser bad index" `Quick
      test_engine_chooser_bad_index;
    Alcotest.test_case "explore clean scenario" `Quick test_explore_clean_scenario;
    Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
    Alcotest.test_case "trace json round-trip" `Quick test_trace_json_roundtrip;
    Alcotest.test_case "mutation: planted bug found" `Quick test_mutation_found;
    Alcotest.test_case "mutation: clean without fault" `Quick
      test_mutation_needs_the_fault;
    Alcotest.test_case "parallel exploration is deterministic" `Quick
      test_parallel_determinism;
  ]
