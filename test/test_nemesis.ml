(* Nemesis harness: generators, schedule JSON, campaigns, planted bugs. *)

open Tact_sim
open Tact_store
open Tact_replica
open Tact_check
module Json = Tact_util.Json

(* Every sampled schedule is well formed for its plan's replica count, and
   the sampler does produce disturbances (not all-empty schedules). *)
let test_sampled_schedules_validate () =
  let total = ref 0 in
  for seed = 0 to 29 do
    let p, s = Sample.draw ~seed in
    total := !total + List.length s.Fault.events;
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d validates" seed)
      []
      (Fault.validate ~n:p.Sample.n s);
    List.iter
      (fun (e : Fault.event) ->
        Alcotest.(check bool) "event precedes quiescence" true
          (e.Fault.at < s.Fault.quiet_after))
      s.Fault.events
  done;
  Alcotest.(check bool) "sampler produces disturbances" true (!total > 0)

let all_actions =
  [
    Fault.Cut ([ 0 ], [ 1; 2 ]);
    Fault.Cut_oneway ([ 2 ], [ 0 ]);
    Fault.Heal_between ([ 0 ], [ 1 ]);
    Fault.Heal_all;
    Fault.Crash 1;
    Fault.Recover 1;
    Fault.Recover_all;
    Fault.Global_loss { rate = 0.25; salt = 77 };
    Fault.Link_loss { src = 0; dst = 2; rate = 0.5; salt = 13 };
    Fault.Duplication { rate = 0.125; salt = 5 };
    Fault.Delay_factor 2.5;
    Fault.Bandwidth_factor 0.5;
  ]

let test_schedule_json_roundtrip () =
  let schedule =
    {
      Fault.events =
        List.mapi
          (fun i action -> { Fault.at = 0.5 +. (0.25 *. float_of_int i); action })
          all_actions;
      quiet_after = 9.75;
    }
  in
  let text = Json.to_string (Fault.schedule_to_json schedule) in
  match Json.parse text with
  | Error m -> Alcotest.failf "reparse failed: %s" m
  | Ok json -> (
    match Fault.schedule_of_json json with
    | None -> Alcotest.fail "schedule_of_json rejected its own output"
    | Some back ->
      Alcotest.(check bool) "quiet_after survives" true
        (Float.equal back.Fault.quiet_after schedule.Fault.quiet_after);
      Alcotest.(check int) "event count survives" (List.length schedule.Fault.events)
        (List.length back.Fault.events);
      List.iter2
        (fun (a : Fault.event) (b : Fault.event) ->
          Alcotest.(check bool) "event time survives" true
            (Float.equal a.Fault.at b.Fault.at);
          Alcotest.(check string) "action survives"
            (Fault.describe a.Fault.action)
            (Fault.describe b.Fault.action))
        schedule.Fault.events back.Fault.events)

(* Satellite: a lossy 3-replica run converges to the same final database as
   a lossless run with the same workload — retransmission recovers every
   dropped transfer. *)
let test_lossy_run_matches_lossless () =
  let run ~loss =
    let config =
      {
        Config.default with
        Config.antientropy_period = Some 0.5;
        retry_period = 0.5;
      }
    in
    let topology = Topology.uniform ~n:3 ~latency:0.03 ~bandwidth:1e6 in
    let sys = System.create ~seed:11 ~jitter:0.0 ~loss ~topology ~config () in
    let engine = System.engine sys in
    for k = 1 to 12 do
      Engine.schedule engine
        ~delay:(0.3 *. float_of_int k)
        (fun () ->
          Replica.submit_write
            (System.replica sys (k mod 3))
            ~deps:[]
            ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
            ~op:(Op.Add ("x", float_of_int k))
            ~k:ignore)
    done;
    System.run ~until:120.0 sys;
    Alcotest.(check bool) "run converged" true (System.converged sys);
    Replica.db (System.replica sys 0)
  in
  let lossless = run ~loss:0.0 in
  let lossy = run ~loss:0.3 in
  Alcotest.(check bool) "same final database" true (Db.equal lossless lossy)

let test_clean_campaign_passes () =
  let summary =
    Campaign.run { Campaign.default with Campaign.master_seed = 1; runs = 40 }
  in
  Alcotest.(check int) "all runs completed" 40 summary.Campaign.completed;
  Alcotest.(check int) "no failures" 0 (List.length summary.Campaign.failures);
  List.iter
    (fun (o : Campaign.outcome) ->
      Alcotest.(check (list string))
        (Printf.sprintf "run %d clean" o.Campaign.run_seed)
        [] o.Campaign.violations)
    summary.Campaign.outcomes

(* Acceptance: the planted crash-replay bug is found by a campaign, shrunk,
   and replays deterministically from its JSON counterexample. *)
let test_crash_replay_bug_found_and_replayed () =
  let summary =
    Campaign.run
      {
        Campaign.default with
        Campaign.master_seed = 1;
        runs = 200;
        mutation = Mutation.Crash_replay;
        max_shrunk = 1;
      }
  in
  match summary.Campaign.failures with
  | [] -> Alcotest.fail "planted crash-replay bug not found in 200 runs"
  | (seed, cx) :: _ ->
    Alcotest.(check bool) "shrunk counterexample still violates" true
      (cx.Counterexample.violations <> []);
    (* Shrinking drops events, never the schedule: the quiescent tail is
       installed on every sampled run. *)
    Alcotest.(check bool) "shrunk run keeps its fault schedule" true
      (Option.is_some cx.Counterexample.faults);
    Alcotest.(check bool) "counterexample names its seed" true
      (cx.Counterexample.kind = Counterexample.Sampled seed);
    (* The same seed passes without the planted bug. *)
    let clean = Campaign.one_run ~mutation:Mutation.Off seed in
    Alcotest.(check (list string))
      "same run is clean without the mutation" [] clean.Campaign.violations;
    (* Round-trip through the JSON file format and replay. *)
    let path = Filename.temp_file "tact_cx" ".json" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Counterexample.save ~path cx;
        match Counterexample.load ~path with
        | Error m -> Alcotest.failf "load failed: %s" m
        | Ok (loaded, plan) ->
          let v = Counterexample.replay plan loaded in
          Alcotest.(check bool) "violations reproduced" true
            v.Counterexample.reproduced;
          Alcotest.(check bool) "final fingerprint matches" true
            v.Counterexample.fingerprint_match;
          (* A sampled plan has no choice phase: no chooser, no steps. *)
          Alcotest.(check int) "no choice-phase steps" 0
            (Array.length v.Counterexample.result.Runner.steps);
          (* Replay is deterministic: a second replay agrees exactly. *)
          let v2 = Counterexample.replay plan loaded in
          Alcotest.(check (list string))
            "second replay identical"
            v.Counterexample.result.Runner.violations
            v2.Counterexample.result.Runner.violations)

(* Acceptance: campaign results for a fixed seed are identical regardless
   of -j (the digest folds every per-run outcome). *)
let test_campaign_jobs_determinism () =
  let run jobs =
    Campaign.run
      { Campaign.default with Campaign.master_seed = 5; runs = 50; jobs }
  in
  let sequential = run 1 and parallel = run 4 in
  Alcotest.(check string)
    "digest independent of jobs" sequential.Campaign.digest
    parallel.Campaign.digest;
  Alcotest.(check int) "same completion count" sequential.Campaign.completed
    parallel.Campaign.completed

(* O6 unit check: a timeout is excused only when its parked window overlaps
   the disturbance envelope. *)
let test_unavailability_accounting () =
  let obs =
    {
      Oracle.o_index = 0;
      o_rid = 1;
      o_submit = 1.0;
      o_deadline = Some 3.0;
      o_read = true;
      o_completions = 0;
      o_timeouts = 1;
    }
  in
  let faulty =
    {
      Fault.events = [ { Fault.at = 2.0; action = Fault.Crash 0 } ];
      quiet_after = 5.0;
    }
  in
  let sys =
    System.create ~topology:(Topology.uniform ~n:2 ~latency:0.05 ~bandwidth:1e9)
      ~config:Config.default ()
  in
  let o6 schedule =
    Oracle.check_unavailability (Sharded.of_system sys) ~schedule ~slack:1.0
      [ obs ]
  in
  Alcotest.(check (list string)) "timeout during faults excused" [] (o6 faulty);
  let quiet = { Fault.events = []; quiet_after = 5.0 } in
  Alcotest.(check bool) "timeout with no faults flagged" true (o6 quiet <> []);
  let late =
    {
      Fault.events = [ { Fault.at = 50.0; action = Fault.Crash 0 } ];
      quiet_after = 60.0;
    }
  in
  Alcotest.(check bool) "timeout before any fault flagged" true (o6 late <> [])

(* The planted-bug selector round-trips exactly: a counterexample saved
   with [oe_slack:0.1234567] must replay that slack, not a %g-rounded one.
   Non-finite and non-positive slacks are refused. *)
let mutation_table =
  [
    ("off", Some Mutation.Off);
    ("crash_replay", Some Mutation.Crash_replay);
    ("wrong_shard", Some Mutation.Wrong_shard);
    ("oe_slack:0.1234567", Some (Mutation.Oe_slack 0.1234567));
    ("oe_slack:1", Some (Mutation.Oe_slack 1.0));
    ("oe_slack:nan", None);
    ("oe_slack:inf", None);
    ("oe_slack:-1", None);
    ("oe_slack:0", None);
    ("oe_slack:", None);
    ("bogus", None);
  ]

let test_mutation_roundtrip () =
  List.iter
    (fun (text, want) ->
      let got = Mutation.of_string text in
      Alcotest.(check bool) ("of_string " ^ text) true (got = want);
      match got with
      | Some m ->
        Alcotest.(check bool) ("round-trip " ^ text) true
          (Mutation.of_string (Mutation.to_string m) = got)
      | None -> ())
    mutation_table;
  let cx =
    {
      Counterexample.kind = Counterexample.Sampled 3;
      mutation = Mutation.Oe_slack 0.1234567;
      deviations = [];
      faults = Some { Fault.events = []; quiet_after = 1.0 };
      violations = [];
      final_fp = 0L;
    }
  in
  match Counterexample.of_json (Counterexample.to_json cx) with
  | Error m -> Alcotest.failf "counterexample JSON: %s" m
  | Ok back ->
    Alcotest.(check bool) "slack survives the JSON file" true
      (back.Counterexample.mutation = cx.Counterexample.mutation)

let suite =
  [
    Alcotest.test_case "mutation string round-trip" `Quick test_mutation_roundtrip;
    Alcotest.test_case "sampled schedules validate" `Quick
      test_sampled_schedules_validate;
    Alcotest.test_case "schedule JSON round-trip" `Quick
      test_schedule_json_roundtrip;
    Alcotest.test_case "lossy run matches lossless" `Quick
      test_lossy_run_matches_lossless;
    Alcotest.test_case "clean campaign passes" `Quick test_clean_campaign_passes;
    Alcotest.test_case "crash-replay bug found, shrunk, replayed" `Quick
      test_crash_replay_bug_found_and_replayed;
    Alcotest.test_case "campaign digest independent of jobs" `Quick
      test_campaign_jobs_determinism;
    Alcotest.test_case "unavailability accounting" `Quick
      test_unavailability_accounting;
  ]
