(* The systematic interleaving checker: engine choice points, the explorer's
   exhaustive pass over a clean scenario, counterexample JSON round-trips,
   trace replay determinism, and the planted-bug mutation test (an accept-path
   order-error off-by-one that only a reordered schedule can expose). *)

open Tact_core
open Tact_sim
open Tact_replica
open Tact_check
module Json = Tact_util.Json

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
  let base = Runner.spec sc.Scenario.plan in
  let probe = Runner.run base in
  let deviations =
    if Array.length probe.Runner.steps > 3
       && Array.length probe.Runner.steps.(3).Runner.ready > 1
    then
      [ (3, probe.Runner.steps.(3).Runner.ready.(1).Engine.c_seq) ]
    else []
  in
  let r1 = Runner.run { base with Runner.deviations } in
  let r2 = Runner.run { base with Runner.deviations } in
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
  let roundtrip (cx : Counterexample.t) =
    match
      Result.bind
        (Json.parse (Json.to_string (Counterexample.to_json cx)))
        Counterexample.of_json
    with
    | Error m -> Alcotest.failf "round-trip failed: %s" m
    | Ok cx' ->
      Alcotest.(check bool) "kind" true
        (cx.Counterexample.kind = cx'.Counterexample.kind);
      Alcotest.(check string) "mutation"
        (Mutation.to_string cx.Counterexample.mutation)
        (Mutation.to_string cx'.Counterexample.mutation);
      Alcotest.(check (list (pair int int)))
        "deviations" cx.Counterexample.deviations cx'.Counterexample.deviations;
      Alcotest.(check (option string))
        "faults"
        (Option.map
           (fun s -> Json.to_string (Fault.schedule_to_json s))
           cx.Counterexample.faults)
        (Option.map
           (fun s -> Json.to_string (Fault.schedule_to_json s))
           cx'.Counterexample.faults);
      Alcotest.(check (list string))
        "violations" cx.Counterexample.violations cx'.Counterexample.violations;
      Alcotest.(check bool) "fingerprint" true
        (Fingerprint.equal cx.Counterexample.final_fp
           cx'.Counterexample.final_fp)
  in
  let scenario =
    {
      Counterexample.kind = Counterexample.Scenario "oe-stability";
      mutation = Mutation.Off;
      deviations = [ (3, 17); (9, 4) ];
      faults = None;
      violations = [ "bounds: read at replica 1 violated oe <= 0.5" ];
      final_fp = 0x1234_5678_9abc_def0L;
    }
  in
  roundtrip scenario;
  (* One schema for both kinds: a sampled run with deviations as well. *)
  roundtrip
    {
      scenario with
      Counterexample.kind = Counterexample.Sampled 42;
      mutation = Mutation.Oe_slack 0.25;
      faults =
        Some
          {
            Fault.events = [ { Fault.at = 1.5; action = Fault.Crash 1 } ];
            quiet_after = 4.0;
          };
    }

(* --- replaying files --------------------------------------------------- *)

(* Counterexamples written by the two CLIs before their file formats merged:
   a checker trace (oe-stability under a one-deviation schedule, clean) and
   a fuzzer counterexample (seed 17 under the planted crash-replay bug,
   shrunk to two fault events, violating).  Both replay through the one
   [replay] to the recorded fingerprint and violation outcome, and both
   CLIs accept both files. *)
let root = if Sys.file_exists "fixtures/replay" then "" else "test/"

(* The CLIs as built next to this suite: [dune runtest] runs it from
   _build/default/test, [dune exec test/main.exe] from the repo root. *)
let bin = if String.equal root "" then "../bin/" else "_build/default/bin/"

let fixtures =
  [
    (root ^ "fixtures/replay/check_oe-stability.json", false);
    (root ^ "fixtures/replay/fuzz_seed17_crash_replay.json", true);
  ]

let test_replay_fixtures () =
  List.iter
    (fun (path, violating) ->
      match Counterexample.load ~path with
      | Error m -> Alcotest.failf "%s: %s" path m
      | Ok (cx, plan) ->
        let v = Counterexample.replay plan cx in
        Alcotest.(check bool) (path ^ ": fingerprint match") true
          v.Counterexample.fingerprint_match;
        Alcotest.(check bool) (path ^ ": recorded outcome") violating
          v.Counterexample.reproduced;
        Alcotest.(check bool) (path ^ ": replay rule holds") true
          v.Counterexample.ok;
        List.iter
          (fun cli ->
            Alcotest.(check int)
              (Printf.sprintf "%s replay %s exits 0" cli path)
              0
              (Sys.command
                 (Printf.sprintf "%s%s.exe replay %s > /dev/null" bin cli
                    path)))
          [ "tact_check"; "tact_fuzz" ])
    fixtures

(* Files are untrusted input: an out-of-range replica id or an unknown
   scenario is an [Error] from the loader, never an exception mid-run. *)
let test_replay_rejects_bad_files () =
  let load_text text =
    let path = Filename.temp_file "tact_cx" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        Counterexample.load ~path)
  in
  let rejects what ~says text =
    match load_text text with
    | Error m ->
      let contains =
        let n = String.length says in
        let rec at i =
          i + n <= String.length m
          && (String.equal (String.sub m i n) says || at (i + 1))
        in
        at 0
      in
      if not contains then Alcotest.failf "%s: error %S lacks %S" what m says
    | Ok _ -> Alcotest.failf "%s accepted" what
    | exception e ->
      Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  rejects "replica 9 of 3" ~says:"invalid fault schedule"
    {|{"version":1,"seed":17,"mutation":"crash_replay","quiet_after":7.2,
       "events":[{"at":1.0,"t":"crash","r":9}],"violations":[],
       "final_fingerprint":"0x0"}|};
  rejects "unknown scenario" ~says:"unknown scenario"
    {|{"version":2,"kind":"scenario","scenario":"no-such","mutation":"off",
       "deviations":[],"violations":[],"final_fingerprint":"0x0"}|};
  rejects "unknown kind" ~says:"malformed"
    {|{"version":2,"kind":"other","seed":1,"violations":[],
       "final_fingerprint":"0x0"}|};
  rejects "scenario with a fault schedule" ~says:"installs no fault"
    {|{"version":2,"kind":"scenario","scenario":"oe-stability",
       "mutation":"off","deviations":[],"quiet_after":2.0,
       "events":[{"at":1.0,"t":"crash","r":0}],"violations":[],
       "final_fingerprint":"0x0"}|};
  rejects "sampled without a fault schedule" ~says:"needs its fault"
    {|{"version":2,"kind":"sampled","seed":17,"mutation":"off",
       "deviations":[],"violations":[],"final_fingerprint":"0x0"}|};
  rejects "version 2 missing its deviations" ~says:"malformed"
    {|{"version":2,"kind":"scenario","scenario":"oe-stability",
       "mutation":"off","violations":[],"final_fingerprint":"0x0"}|};
  rejects "future version" ~says:"unsupported"
    {|{"version":3,"kind":"sampled","seed":1,"violations":[],
       "final_fingerprint":"0x0"}|}

(* --- the planted-bug mutation test ------------------------------------- *)

(* An accept-path off-by-one: [Oe_slack] makes the replica admit
   accesses whose tentative order error exceeds the requested bound by up to
   the slack.  In the default schedule the anti-entropy delivery at ~0.35
   commits everything before the read at 0.40, so the bug is invisible; only
   a schedule that fires the read ahead of that delivery serves it over-bound.
   The checker must find that reordering, minimize it, and produce a
   replayable trace. *)
let planted_scenario =
  let write time rid =
    {
      Sample.op_rid = rid;
      op_time = time;
      op_kind = Sample.Write_op { conit = "x"; nweight = 1.0; oweight = 1.0 };
      op_deadline = None;
    }
  in
  {
    Scenario.name = "planted-oe-slack";
    summary = "accept path wrongly grants OE slack; visible only reordered";
    plan =
      {
        Sample.seed = 7;
        n = 2;
        topology = Topology.uniform ~n:2 ~latency:0.05 ~bandwidth:1e9;
        jitter = 0.0;
        config =
          {
            Config.default with
            Config.conits = [ Conit.declare ~oe_bound:0.5 "x"; Conit.declare "y" ];
            antientropy_period = Some 0.3;
            retry_period = 0.5;
          };
        ops =
          [
            write 0.05 0;
            write 0.10 1;
            {
              Sample.op_rid = 1;
              op_time = 0.40;
              op_kind = Sample.Read_op { deps = [ ("x", Bounds.make ~oe:0.5 ()) ] };
              op_deadline = None;
            };
          ];
        checks =
          {
            Sample.all_checks with
            Sample.lcp = false;
            ext_compat = false;
            causal_compat = false;
            theorem1 = false;
          };
        choice_until = Some 0.5;
        until = 6.0;
      };
  }

let test_mutation_found () =
  let sc = planted_scenario in
  let mutation = Mutation.Oe_slack 1.0 in
  (* The default schedule must NOT expose the planted bug (otherwise this
     would be testing nothing about systematic exploration). *)
  let default = Runner.run (Runner.spec ~mutation sc.Scenario.plan) in
  Alcotest.(check (list string))
    "default schedule clean" [] default.Runner.violations;
  (* ... but exploration must. *)
  let o = Explorer.explore ~options:Explorer.default_options ~mutation sc in
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
    let v1 = Counterexample.replay sc.Scenario.plan cx in
    let v2 = Counterexample.replay sc.Scenario.plan cx in
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
      let v3 = Counterexample.replay sc.Scenario.plan cx' in
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
  let explore ~slack ~jobs =
    Explorer.explore ~options:Explorer.default_options ~jobs
      ~mutation:(Mutation.Oe_slack slack) planted_scenario
  in
  let seq = explore ~slack:1.0 ~jobs:1 in
  let par = explore ~slack:1.0 ~jobs:4 in
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
    let steps (cx : Counterexample.t) =
      Array.length
        (Runner.run
           {
             Runner.plan = planted_scenario.Scenario.plan;
             deviations = cx.Counterexample.deviations;
             faults = cx.Counterexample.faults;
             mutation = cx.Counterexample.mutation;
           })
          .Runner.steps
    in
    Alcotest.(check int) "identical step count" (steps a) (steps b);
    (* Byte-identical, literally: the serialized traces match. *)
    Alcotest.(check string) "identical serialized trace"
      (Json.to_string (Counterexample.to_json a))
      (Json.to_string (Counterexample.to_json b))
  | None, None -> Alcotest.fail "both job counts missed the planted bug"
  | Some _, None -> Alcotest.fail "jobs:4 missed the planted bug"
  | None, Some _ -> Alcotest.fail "jobs:1 missed the planted bug");
  (* Clean space: identical exhaustion stats, no counterexample. *)
  let seq = explore ~slack:0.0 ~jobs:1 in
  let par = explore ~slack:0.0 ~jobs:4 in
  Alcotest.check stats "clean: identical statistics" seq.Explorer.stats
    par.Explorer.stats;
  Alcotest.(check bool) "clean at any job count" true
    (Option.is_none seq.Explorer.counterexample
    && Option.is_none par.Explorer.counterexample)

let test_mutation_needs_the_fault () =
  (* Same scenario without the slack: the space is clean, proving the
     counterexample above is the planted bug and not a latent protocol
     defect. *)
  let o = Explorer.explore ~options:Explorer.default_options planted_scenario in
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
    Alcotest.test_case "replay: files from both CLIs" `Quick test_replay_fixtures;
    Alcotest.test_case "replay: bad files rejected" `Quick
      test_replay_rejects_bad_files;
    Alcotest.test_case "mutation: planted bug found" `Quick test_mutation_found;
    Alcotest.test_case "mutation: clean without fault" `Quick
      test_mutation_needs_the_fault;
    Alcotest.test_case "parallel exploration is deterministic" `Quick
      test_parallel_determinism;
  ]
