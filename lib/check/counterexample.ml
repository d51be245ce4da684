module Json = Tact_util.Json
module Mutation = Tact_replica.Mutation

type kind = Scenario of string | Sampled of int

type t = {
  kind : kind;
  mutation : Mutation.t;
  deviations : (int * int) list;
  faults : Fault.schedule option;
  violations : string list;
  final_fp : Fingerprint.t;
}

let version = 2

(* ------------------------------------------------------------------ *)
(* Minimization                                                        *)

(* Greedy delta debugging over a list, known to fail: repeatedly drop any
   single element whose removal still fails, until no single removal does.
   Sound for both lists it runs over.  Deviations are independent
   coordinates of the schedule (removing one leaves the prefix up to the
   earliest remaining deviation unchanged); fault events are installed at
   absolute times with self-seeded knobs (Fault), so each subset executes
   as it would standalone — and the quiescent tail is not an event, so
   shrinking cannot "succeed" by deleting the heal. *)
let shrink fails xs =
  let rec go xs =
    let n = List.length xs in
    let rec try_drop i =
      if i >= n then xs
      else
        let without = List.filteri (fun j _ -> j <> i) xs in
        if fails without then go without else try_drop (i + 1)
    in
    try_drop 0
  in
  go xs

let minimize (s : Runner.spec) =
  let fails s = (Runner.run s).Runner.violations <> [] in
  if not (fails s) then s
  else
    let s =
      {
        s with
        deviations =
          shrink (fun deviations -> fails { s with deviations }) s.deviations;
      }
    in
    match s.faults with
    | None -> s
    | Some sched ->
      let with_faults events quiet_after =
        { s with faults = Some { Fault.events; quiet_after } }
      in
      let events =
        shrink
          (fun events -> fails (with_faults events sched.Fault.quiet_after))
          sched.Fault.events
      in
      (* Pull the quiescent tail right after the last disturbance, so the
         minimal schedule also has a minimal active window. *)
      let last =
        List.fold_left
          (fun acc (e : Fault.event) -> Float.max acc e.Fault.at)
          0.0 events
      in
      let tight = with_faults events (last +. 0.5) in
      if last +. 0.5 < sched.Fault.quiet_after && fails tight then tight
      else with_faults events sched.Fault.quiet_after

let of_failure kind spec =
  let s = minimize spec in
  let r = Runner.run s in
  {
    kind;
    mutation = s.Runner.mutation;
    deviations = s.Runner.deviations;
    faults = s.Runner.faults;
    violations = r.Runner.violations;
    final_fp = r.Runner.final_fp;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let to_json t =
  let int i = Json.Num (float_of_int i) in
  let kind =
    match t.kind with
    | Scenario name ->
      [ ("kind", Json.Str "scenario"); ("scenario", Json.Str name) ]
    | Sampled seed -> [ ("kind", Json.Str "sampled"); ("seed", int seed) ]
  in
  let faults =
    match Option.map Fault.schedule_to_json t.faults with
    | Some (Json.Obj fields) -> fields
    | _ -> []
  in
  Json.Obj
    ((("version", int version) :: kind)
    @ [
        ("mutation", Json.Str (Mutation.to_string t.mutation));
        ( "deviations",
          Json.Arr
            (List.map (fun (step, seq) -> Json.Arr [ int step; int seq ])
               t.deviations) );
      ]
    @ faults
    @ [
        ("violations", Json.Arr (List.map (fun v -> Json.Str v) t.violations));
        ("final_fingerprint", Json.Str (Fingerprint.to_hex t.final_fp));
      ])

let ( let* ) x f = match x with Some v -> f v | None -> None

let list_of conv items =
  List.fold_right
    (fun item acc ->
      let* acc = acc in
      let* x = conv item in
      Some (x :: acc))
    items (Some [])

(* Version 1 files of either tool leave some fields out, read as
   [default]; version 2 writes every field, so one missing is malformed.  A
   present field must parse. *)
let optional ~v1 j key default conv =
  match Json.member key j with
  | None -> if v1 then Some default else None
  | Some v -> conv v

let of_json j =
  let field key conv = Option.bind (Json.member key j) conv in
  match field "version" Json.to_int with
  | Some v when v <> 1 && v <> version ->
    Error
      (Printf.sprintf "unsupported counterexample version %d (expected %d)" v
         version)
  | v ->
    Option.to_result ~none:"malformed counterexample"
      (let* v = v in
       let v1 = v = 1 in
       (* Version 1 predates the kind field: the checker wrote [scenario],
          the fuzzer [seed]. *)
       let* kind =
         match
           ( field "kind" Json.to_str,
             field "scenario" Json.to_str,
             field "seed" Json.to_int )
         with
         | Some "scenario", Some name, None -> Some (Scenario name)
         | Some "sampled", None, Some seed -> Some (Sampled seed)
         | None, Some name, None when v1 -> Some (Scenario name)
         | None, None, Some seed when v1 -> Some (Sampled seed)
         | _ -> None
       in
       let* mutation =
         optional ~v1 j "mutation" Mutation.Off (fun m ->
             Option.bind (Json.to_str m) Mutation.of_string)
       in
       let* deviations =
         optional ~v1 j "deviations" [] (fun d ->
             let* items = Json.to_list d in
             list_of
               (fun item ->
                 match Json.to_list item with
                 | Some [ s; q ] -> (
                   match (Json.to_int s, Json.to_int q) with
                   | Some s, Some q -> Some (s, q)
                   | _ -> None)
                 | _ -> None)
               items)
       in
       let* faults =
         optional ~v1:true j "events" None (fun _ ->
             Option.map Option.some (Fault.schedule_of_json j))
       in
       let* violations =
         Option.bind (field "violations" Json.to_list) (list_of Json.to_str)
       in
       let* final_fp =
         Option.bind (field "final_fingerprint" Json.to_str) Fingerprint.of_hex
       in
       Some { kind; mutation; deviations; faults; violations; final_fp })

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')

(* The plan a counterexample names, with its fault schedule checked against
   the plan's replica count: a file is untrusted input, and an out-of-range
   replica id would otherwise surface as an exception mid-run. *)
let resolve t =
  let plan =
    match t.kind with
    | Scenario name -> (
      match Scenario.find name with
      | Some sc -> Ok sc.Scenario.plan
      | None -> Error (Printf.sprintf "unknown scenario %s" name))
    | Sampled seed -> Ok (fst (Sample.draw ~seed))
  in
  Result.bind plan (fun (plan : Sample.plan) ->
      match (t.kind, t.faults) with
      | Scenario _, Some _ -> Error "a scenario run installs no fault schedule"
      | Sampled _, None -> Error "a sampled run needs its fault schedule"
      | _ -> (
        match Option.map (Fault.validate ~n:plan.Sample.n) t.faults with
        | None | Some [] -> Ok (t, plan)
        | Some errs ->
          Error ("invalid fault schedule: " ^ String.concat "; " errs)))

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | contents ->
    Result.bind (Result.bind (Json.parse contents) of_json) resolve

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type replay_verdict = {
  result : Runner.result;
  reproduced : bool;
  fingerprint_match : bool;
  ok : bool;
}

let replay ?(sanitize = true) plan t =
  let result =
    Runner.run ~sanitize
      {
        Runner.plan;
        deviations = t.deviations;
        faults = t.faults;
        mutation = t.mutation;
      }
  in
  let reproduced = result.Runner.violations <> [] in
  let fingerprint_match = Fingerprint.equal result.Runner.final_fp t.final_fp in
  {
    result;
    reproduced;
    fingerprint_match;
    ok = fingerprint_match && reproduced = (t.violations <> []);
  }

let replay_file ~path =
  Result.map
    (fun (t, plan) ->
      let v = replay plan t in
      let events =
        match t.faults with Some s -> List.length s.Fault.events | None -> 0
      in
      ( Printf.sprintf
          "replaying %s: %s, %d deviations, %d fault events, mutation %s, %d \
           steps"
          path
          (match t.kind with
          | Scenario name -> "scenario " ^ name
          | Sampled seed -> Printf.sprintf "seed %d" seed)
          (List.length t.deviations) events
          (Mutation.to_string t.mutation)
          (Array.length v.result.Runner.steps)
        :: List.map (fun l -> "  " ^ l) v.result.Runner.violations
        @ [
            Printf.sprintf
              "  violations reproduced: %b (recorded: %b), final fingerprint \
               match: %b"
              v.reproduced (t.violations <> []) v.fingerprint_match;
          ],
        v.ok ))
    (load ~path)
