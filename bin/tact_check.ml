(* Systematic interleaving checker over the named lib/check scenarios.

   Usage:
     tact_check list
     tact_check run SCENARIO [OPTIONS]
     tact_check all [OPTIONS]
     tact_check replay CX.json

   Options:
     --smoke            tight budgets for CI (defaults tuned to finish fast)
     --depth N          branch only at the first N choice-phase steps
     --preemptions N    max deviations per schedule
     --window SECONDS   deviate only to events this close to the earliest
     --max-schedules N  execution budget per scenario (0 = unlimited)
     --no-prune         disable commute-forward pruning
     --no-dedup         disable fingerprint deduplication
     --trace-dir DIR    where to write counterexample traces (default ".")
     -j, --jobs N       explore on N domains, this one included (default 1);
                        the verdict, statistics and trace are identical to -j 1

   replay accepts a counterexample written by tact_check or tact_fuzz.

   Exit status: 0 all explored scenarios pass (or a replay reproduces its
   file: same final fingerprint, violations exactly when recorded), 1 a
   violation was found (trace written) or a replay did not reproduce, 2
   usage error or a file that cannot be replayed. *)

open Tact_check

let usage () =
  prerr_endline
    "usage: tact_check list | run SCENARIO [opts] | all [opts] | replay TRACE";
  prerr_endline "       opts: --smoke --depth N --preemptions N --window W";
  prerr_endline
    "             --max-schedules N --no-prune --no-dedup --trace-dir DIR";
  prerr_endline "             -j N | --jobs N";
  exit 2

type cli = {
  mutable options : Explorer.options;
  mutable trace_dir : string;
  mutable jobs : int;
}

let parse_options args =
  let cli = { options = Explorer.default_options; trace_dir = "."; jobs = 1 } in
  let rec go = function
    | [] -> cli
    | "--smoke" :: rest ->
      cli.options <- Explorer.smoke_options;
      go rest
    | "--depth" :: v :: rest ->
      cli.options <- { cli.options with Explorer.depth = int_of_string v };
      go rest
    | "--preemptions" :: v :: rest ->
      cli.options <- { cli.options with Explorer.preemptions = int_of_string v };
      go rest
    | "--window" :: v :: rest ->
      cli.options <- { cli.options with Explorer.window = float_of_string v };
      go rest
    | "--max-schedules" :: v :: rest ->
      cli.options <- { cli.options with Explorer.max_schedules = int_of_string v };
      go rest
    | "--no-prune" :: rest ->
      cli.options <- { cli.options with Explorer.prune = false };
      go rest
    | "--no-dedup" :: rest ->
      cli.options <- { cli.options with Explorer.dedup = false };
      go rest
    | "--trace-dir" :: v :: rest ->
      cli.trace_dir <- v;
      go rest
    | ("-j" | "--jobs") :: v :: rest ->
      cli.jobs <- int_of_string v;
      go rest
    | arg :: _ ->
      Printf.eprintf "tact_check: unknown option %s\n" arg;
      usage ()
  in
  let cli =
    try go args
    with Failure _ ->
      prerr_endline "tact_check: bad numeric option value";
      usage ()
  in
  (* stderr only: stdout, verdicts and digests do not depend on -j *)
  Option.iter (Printf.eprintf "tact_check: %s\n%!") (Tact_util.Pool.oversubscription ~jobs:cli.jobs);
  cli

let trace_path cli (sc : Scenario.t) =
  Filename.concat cli.trace_dir
    (Printf.sprintf "tact_check.%s.trace.json" sc.Scenario.name)

let check_one cli (sc : Scenario.t) =
  (* Wall clock, not [Sys.time]: CPU time sums over the pool's domains. *)
  let start = Unix.gettimeofday () in
  let outcome = Explorer.explore ~options:cli.options ~jobs:cli.jobs sc in
  let elapsed = Unix.gettimeofday () -. start in
  let s = outcome.Explorer.stats in
  match outcome.Explorer.counterexample with
  | None ->
    Printf.printf
      "%-16s %s: %d schedules, %d states deduped, %d pruned, max %d steps, 0 \
       violations (%.1fs)\n"
      sc.Scenario.name
      (if s.Explorer.exhausted then "exhausted" else "budget-capped")
      s.Explorer.schedules s.Explorer.deduped s.Explorer.pruned
      s.Explorer.max_steps elapsed;
    true
  | Some cx ->
    let path = trace_path cli sc in
    Counterexample.save ~path cx;
    Printf.printf
      "%-16s VIOLATION after %d schedules (%d-deviation counterexample, \
       minimized):\n"
      sc.Scenario.name s.Explorer.schedules
      (List.length cx.Counterexample.deviations);
    List.iter (Printf.printf "  %s\n") cx.Counterexample.violations;
    Printf.printf "  trace written to %s (replay with: tact_check replay %s)\n"
      path path;
    false

let run_scenarios cli scs =
  let ok = List.for_all (fun sc -> check_one cli sc) scs in
  if ok then 0 else 1

let replay path =
  match Counterexample.replay_file ~path with
  | Error m ->
    Printf.eprintf "tact_check: cannot replay %s: %s\n" path m;
    2
  | Ok (lines, ok) ->
    List.iter print_endline lines;
    if ok then 0 else 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "list" :: _ ->
    List.iter
      (fun (sc : Scenario.t) ->
        let p = sc.Scenario.plan in
        Printf.printf "%-16s %d replicas, horizon %gs — %s\n" sc.Scenario.name
          p.Sample.n
          (Option.value p.Sample.choice_until ~default:p.Sample.until)
          sc.Scenario.summary)
      Scenario.all;
    exit 0
  | _ :: "run" :: name :: args -> (
    match Scenario.find name with
    | None ->
      Printf.eprintf "tact_check: unknown scenario %s (try: tact_check list)\n"
        name;
      exit 2
    | Some sc -> exit (run_scenarios (parse_options args) [ sc ]))
  | _ :: "all" :: args ->
    exit (run_scenarios (parse_options args) Scenario.all)
  | _ :: "replay" :: path :: _ -> exit (replay path)
  | _ -> usage ()
