module Json = Tact_check.Json
module Fingerprint = Tact_check.Fingerprint
module Mutation = Tact_replica.Mutation

type t = {
  seed : int;
  mutation : Mutation.t;
  events : Fault.event list;
  quiet_after : float;
  violations : string list;
  fingerprint : Fingerprint.t;
}

let version = 1

let run_with ~seed ~mutation schedule =
  let p = Sample.plan ~seed in
  Runner.execute ~mutation p schedule

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

(* Greedy delta-debugging over the disturbance events, then schedule
   shortening.  Dropping an event never perturbs the others: fault events
   are installed at absolute times and stochastic knobs are self-seeded
   (Fault), so each subset executes exactly as it would standalone.  The
   quiescent tail is appended by the runner, not stored — shrinking cannot
   "succeed" by deleting the heal. *)
let minimize ~seed ~mutation ~quiet_after events =
  let fails ~quiet_after events =
    (run_with ~seed ~mutation { Fault.events; quiet_after }).Runner.violations
    <> []
  in
  let rec shrink events =
    let n = List.length events in
    let rec try_drop i =
      if i >= n then events
      else
        let without = List.filteri (fun j _ -> j <> i) events in
        if fails ~quiet_after without then shrink without else try_drop (i + 1)
    in
    try_drop 0
  in
  let events =
    if fails ~quiet_after events then shrink events else events
  in
  (* Shorten: pull the quiescent tail right after the last disturbance, so
     the minimal schedule also has a minimal active window. *)
  let last =
    List.fold_left
      (fun acc (e : Fault.event) -> Float.max acc e.Fault.at)
      0.0 events
  in
  let tight = last +. 0.5 in
  if tight < quiet_after && fails ~quiet_after:tight events then (events, tight)
  else (events, quiet_after)

let of_failure ~seed ~mutation ~(schedule : Fault.schedule) =
  let events, quiet_after =
    minimize ~seed ~mutation ~quiet_after:schedule.Fault.quiet_after
      schedule.Fault.events
  in
  let r = run_with ~seed ~mutation { Fault.events; quiet_after } in
  {
    seed;
    mutation;
    events;
    quiet_after;
    violations = r.Runner.violations;
    fingerprint = r.Runner.fingerprint;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let to_json t =
  Json.Obj
    [
      ("version", Json.Num (float_of_int version));
      ("seed", Json.Num (float_of_int t.seed));
      ("mutation", Json.Str (Mutation.to_string t.mutation));
      ("quiet_after", Json.Num t.quiet_after);
      ("events", Json.Arr (List.map Fault.event_to_json t.events));
      ("violations", Json.Arr (List.map (fun v -> Json.Str v) t.violations));
      ("final_fingerprint", Json.Str (Fingerprint.to_hex t.fingerprint));
    ]

let of_json j =
  let ( let* ) x f = match x with Some v -> f v | None -> Error "malformed counterexample" in
  let* v = Option.bind (Json.member "version" j) Json.to_int in
  if v <> version then
    Error (Printf.sprintf "unsupported counterexample version %d (expected %d)" v version)
  else
    let* seed = Option.bind (Json.member "seed" j) Json.to_int in
    let* mutation =
      Option.bind
        (Option.bind (Json.member "mutation" j) Json.to_str)
        Mutation.of_string
    in
    let* quiet_after = Option.bind (Json.member "quiet_after" j) Json.to_float in
    let* items = Option.bind (Json.member "events" j) Json.to_list in
    let* events =
      List.fold_right
        (fun item acc ->
          Option.bind acc (fun acc ->
              Option.map (fun e -> e :: acc) (Fault.event_of_json item)))
        items (Some [])
    in
    let* viol_items = Option.bind (Json.member "violations" j) Json.to_list in
    let* violations =
      List.fold_right
        (fun item acc ->
          Option.bind acc (fun acc ->
              Option.map (fun s -> s :: acc) (Json.to_str item)))
        viol_items (Some [])
    in
    let* fp_hex = Option.bind (Json.member "final_fingerprint" j) Json.to_str in
    let* fingerprint = Fingerprint.of_hex fp_hex in
    Ok { seed; mutation; events; quiet_after; violations; fingerprint }

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | contents -> Result.bind (Json.parse contents) of_json

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type replay_verdict = {
  result : Runner.result;
  reproduced : bool;
  fingerprint_match : bool;
}

let replay t =
  let result =
    run_with ~seed:t.seed ~mutation:t.mutation
      { Fault.events = t.events; quiet_after = t.quiet_after }
  in
  {
    result;
    reproduced = result.Runner.violations <> [];
    fingerprint_match = Fingerprint.equal result.Runner.fingerprint t.fingerprint;
  }
