(* Randomized fault-campaign fuzzer over the nemesis DSL (doc/FAULTS.md).

   Usage:
     tact_fuzz list
     tact_fuzz run --seed N [OPTIONS]
     tact_fuzz all [OPTIONS]
     tact_fuzz replay CX.json

   Options:
     --seed N           campaign master seed (default 1)
     --runs N           seeded runs in the campaign (default 100)
     --budget DUR       wall-clock budget, e.g. 30s / 2m; checked between
                        fixed-size batches so any run that executes is
                        deterministic (default: none)
     --mutation M       planted bug: off | crash_replay | oe_slack:<x> (x > 0)
                        (self-test mode; default off)
     --trace-dir DIR    where to write shrunk counterexamples (default ".")
     -j, --jobs N       fan runs over N domains, this one included (default
                        1); the runs, verdicts and digest are identical to -j 1

   replay accepts a counterexample written by tact_fuzz or tact_check.

   Exit status: 0 every run passed (or a replay reproduced its file: same
   final fingerprint, violations exactly when recorded), 1 a violation was
   found (counterexample JSON written) or a replay did not reproduce, 2
   usage error or a file that cannot be replayed. *)

open Tact_check
module Mutation = Tact_replica.Mutation

let usage () =
  prerr_endline
    "usage: tact_fuzz list | run --seed N [opts] | all [opts] | replay CX.json";
  prerr_endline
    "       opts: --seed N --runs N --budget DUR --mutation M --trace-dir DIR";
  prerr_endline "             -j N | --jobs N";
  exit 2

type cli = {
  mutable seed : int;
  mutable runs : int;
  mutable jobs : int;
  mutable budget : float option;  (* seconds *)
  mutable mutation : Mutation.t;
  mutable trace_dir : string;
}

let parse_budget s =
  let scaled ~suffix ~factor =
    if String.ends_with ~suffix s then
      Option.map
        (fun v -> v *. factor)
        (float_of_string_opt (String.sub s 0 (String.length s - String.length suffix)))
    else None
  in
  match scaled ~suffix:"ms" ~factor:0.001 with
  | Some v -> Some v
  | None -> (
    match scaled ~suffix:"s" ~factor:1.0 with
    | Some v -> Some v
    | None -> (
      match scaled ~suffix:"m" ~factor:60.0 with
      | Some v -> Some v
      | None -> float_of_string_opt s))

let parse_options args =
  let cli =
    {
      seed = 1;
      runs = 100;
      jobs = 1;
      budget = None;
      mutation = Mutation.Off;
      trace_dir = ".";
    }
  in
  let rec go = function
    | [] -> cli
    | "--seed" :: v :: rest ->
      cli.seed <- int_of_string v;
      go rest
    | "--runs" :: v :: rest ->
      cli.runs <- int_of_string v;
      go rest
    | "--budget" :: v :: rest -> (
      match parse_budget v with
      | Some b when b > 0.0 ->
        cli.budget <- Some b;
        go rest
      | _ ->
        Printf.eprintf "tact_fuzz: bad budget %s (try 30s, 2m, 500ms)\n" v;
        usage ())
    | "--mutation" :: v :: rest -> (
      match Mutation.of_string v with
      | Some Mutation.Wrong_shard ->
        (* campaigns run unsharded systems, where the router bug is inert *)
        Printf.eprintf "tact_fuzz: wrong_shard needs a sharded system\n";
        usage ()
      | Some m ->
        cli.mutation <- m;
        go rest
      | None ->
        Printf.eprintf "tact_fuzz: unknown mutation %s\n" v;
        usage ())
    | "--trace-dir" :: v :: rest ->
      cli.trace_dir <- v;
      go rest
    | ("-j" | "--jobs") :: v :: rest ->
      cli.jobs <- int_of_string v;
      go rest
    | arg :: _ ->
      Printf.eprintf "tact_fuzz: unknown option %s\n" arg;
      usage ()
  in
  let cli =
    try go args
    with Failure _ ->
      prerr_endline "tact_fuzz: bad numeric option value";
      usage ()
  in
  (* stderr only: stdout, verdicts and digests do not depend on -j *)
  Option.iter (Printf.eprintf "tact_fuzz: %s\n%!") (Tact_util.Pool.oversubscription ~jobs:cli.jobs);
  cli

let cx_path cli seed =
  Filename.concat cli.trace_dir (Printf.sprintf "tact_fuzz.%d.cx.json" seed)

let show_failure cli (seed, (cx : Counterexample.t)) =
  let events, quiet_after =
    match cx.Counterexample.faults with
    | Some f -> (f.Fault.events, f.Fault.quiet_after)
    | None -> ([], 0.0)
  in
  let path = cx_path cli seed in
  Counterexample.save ~path cx;
  Printf.printf
    "seed %d VIOLATION (shrunk to %d fault events, quiet after %gs):\n" seed
    (List.length events) quiet_after;
  List.iter
    (fun (e : Fault.event) ->
      Printf.printf "  @%-8.3f %s\n" e.Fault.at (Fault.describe e.Fault.action))
    events;
  List.iter (Printf.printf "  %s\n") cx.Counterexample.violations;
  Printf.printf "  counterexample written to %s (replay with: tact_fuzz replay %s)\n"
    path path

let campaign cli ~runs =
  let start = Unix.gettimeofday () in
  let budget_check =
    Option.map
      (fun b () -> Unix.gettimeofday () -. start < b)
      cli.budget
  in
  let summary =
    Campaign.run
      {
        Campaign.master_seed = cli.seed;
        runs;
        jobs = cli.jobs;
        mutation = cli.mutation;
        max_shrunk = 3;
        budget_check;
      }
  in
  let elapsed = Unix.gettimeofday () -. start in
  let failed =
    List.length
      (List.filter
         (fun (o : Campaign.outcome) -> o.Campaign.violations <> [])
         summary.Campaign.outcomes)
  in
  Printf.printf
    "campaign seed %d: %d/%d runs, %d failing, digest %s (%.1fs, -j %d%s)\n"
    cli.seed summary.Campaign.completed summary.Campaign.attempted failed
    summary.Campaign.digest elapsed cli.jobs
    (if summary.Campaign.completed < summary.Campaign.attempted then
       ", stopped by budget"
     else "");
  List.iter (show_failure cli) summary.Campaign.failures;
  if failed = 0 then 0 else 1

let single cli =
  let outcome = Campaign.one_run ~mutation:cli.mutation cli.seed in
  let _, schedule = Sample.draw ~seed:cli.seed in
  Printf.printf
    "seed %d: %d ops, %d fault events, %d timeouts, %d dropped messages\n"
    cli.seed outcome.Campaign.ops outcome.Campaign.schedule_events
    outcome.Campaign.timeouts outcome.Campaign.dropped;
  List.iter
    (fun (e : Fault.event) ->
      Printf.printf "  @%-8.3f %s\n" e.Fault.at (Fault.describe e.Fault.action))
    schedule.Fault.events;
  if outcome.Campaign.violations = [] then begin
    Printf.printf "  all oracles passed\n";
    0
  end
  else begin
    show_failure cli
      (cli.seed, Campaign.shrink ~mutation:cli.mutation cli.seed);
    1
  end

let replay path =
  match Counterexample.replay_file ~path with
  | Error m ->
    Printf.eprintf "tact_fuzz: cannot replay %s: %s\n" path m;
    2
  | Ok (lines, ok) ->
    List.iter print_endline lines;
    if ok then 0 else 1

let list () =
  print_endline "fault generators (lib/check/gen.ml, sampled by seed):";
  List.iter print_endline
    [
      "  rolling-partition    isolate one node per round, rolling around the ring";
      "  asymmetric-partition one-way group cut (messages drop in one direction)";
      "  flapping-link        one node pair cut and healed repeatedly";
      "  crash-storm          Poisson crash/recover over random replicas";
      "  loss-burst           global message loss at a sampled rate";
      "  link-loss-burst      loss on one random directed link";
      "  duplication-storm    random per-message duplication";
      "  delay-spike          all delays scaled up for a window";
      "  bandwidth-squeeze    link bandwidth scaled down for a window";
    ];
  print_endline "";
  print_endline
    "every run: 2-4 replicas, sampled topology/conits/bounds/commit scheme,";
  print_endline
    "8-24 client ops, a quiescent heal-all tail, then oracles O1-O6";
  print_endline "(doc/FAULTS.md).  mutations: off | crash_replay | oe_slack:<x>"

let () =
  match Array.to_list Sys.argv with
  | _ :: "list" :: _ ->
    list ();
    exit 0
  | _ :: "run" :: args ->
    let cli = parse_options args in
    exit (single cli)
  | _ :: "all" :: args ->
    let cli = parse_options args in
    exit (campaign cli ~runs:cli.runs)
  | _ :: "replay" :: path :: _ -> exit (replay path)
  | _ -> usage ()
