open Tact_util
module Mutation = Tact_replica.Mutation

type config = {
  master_seed : int;
  runs : int;
  jobs : int;
  mutation : Mutation.t;
  max_shrunk : int;
  budget_check : (unit -> bool) option;
}

let default =
  {
    master_seed = 1;
    runs = 100;
    jobs = 1;
    mutation = Mutation.Off;
    max_shrunk = 3;
    budget_check = None;
  }

type outcome = {
  run_seed : int;
  violations : string list;
  fingerprint : Fingerprint.t;
  schedule_events : int;
  ops : int;
  timeouts : int;
  dropped : int;
}

type summary = {
  attempted : int;
  completed : int;
  outcomes : outcome list;  (** completed runs, in seed-derivation order *)
  failures : (int * Counterexample.t) list;
      (** failing seeds with their minimized counterexamples, at most
          [max_shrunk], in run order *)
  digest : string;
}

(* Per-run seeds are drawn sequentially from the master stream before any
   fan-out, so the set of runs is independent of [jobs]. *)
let derive_seeds ~master_seed ~runs =
  let g = Prng.create ~seed:master_seed in
  List.init runs (fun _ -> Int64.to_int (Prng.bits64 g) land 0x3FFFFFFFFFFFFF)

let one_run ~mutation run_seed =
  let plan, schedule = Sample.draw ~seed:run_seed in
  let r = Runner.run (Runner.spec ~faults:schedule ~mutation plan) in
  {
    run_seed;
    violations = r.Runner.violations;
    fingerprint = r.Runner.final_fp;
    schedule_events = List.length schedule.Fault.events;
    ops = List.length plan.Sample.ops;
    timeouts = r.Runner.timeouts;
    dropped = (Tact_replica.System.traffic r.Runner.sys).Tact_sim.Net.dropped;
  }

let shrink ~mutation run_seed =
  let plan, faults = Sample.draw ~seed:run_seed in
  Counterexample.of_failure (Counterexample.Sampled run_seed)
    (Runner.spec ~faults ~mutation plan)

(* FNV-1a over the ordered per-run results: equal digests mean the campaign
   saw identical runs with identical verdicts — the jobs-independence
   contract is asserted on this string. *)
let digest_outcomes outcomes =
  let h = ref 0xcbf29ce484222325L in
  let mix_byte b =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) 0x100000001b3L
  in
  let mix_string s = String.iter (fun c -> mix_byte (Char.code c)) s in
  List.iter
    (fun o ->
      mix_string (string_of_int o.run_seed);
      mix_string (Fingerprint.to_hex o.fingerprint);
      mix_string (string_of_int (List.length o.violations)))
    outcomes;
  Printf.sprintf "%016Lx" !h

let rec batches k = function
  | [] -> []
  | xs ->
    let rec take n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (n - 1) (x :: acc) rest
    in
    let batch, rest = take k [] xs in
    batch :: batches k rest

let run cfg =
  let seeds = derive_seeds ~master_seed:cfg.master_seed ~runs:cfg.runs in
  let batch_size = max 1 (cfg.jobs * 4) in
  let outcomes =
    Pool.with_pool ~jobs:cfg.jobs (fun pool ->
        let out = ref [] in
        let stopped = ref false in
        List.iter
          (fun batch ->
            if not !stopped then begin
              out :=
                Pool.map_list pool (one_run ~mutation:cfg.mutation) batch
                :: !out;
              (* The budget gate sits between fixed-size batches so a fixed
                 seed always executes a whole number of identical batches —
                 wall-clock never changes what any single run does. *)
              match cfg.budget_check with
              | Some keep_going when not (keep_going ()) -> stopped := true
              | _ -> ()
            end)
          (batches batch_size seeds);
        List.concat (List.rev !out))
  in
  let failures =
    List.filter (fun o -> o.violations <> []) outcomes
    |> List.filteri (fun i _ -> i < cfg.max_shrunk)
    |> List.map (fun o ->
           (o.run_seed, shrink ~mutation:cfg.mutation o.run_seed))
  in
  {
    attempted = cfg.runs;
    completed = List.length outcomes;
    outcomes;
    failures;
    digest = digest_outcomes outcomes;
  }
