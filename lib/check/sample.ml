open Tact_util
open Tact_core
open Tact_replica

type op_kind =
  | Write_op of { conit : string; nweight : float; oweight : float }
  | Read_op of { deps : (string * Bounds.t) list }

type op = {
  op_rid : int;
  op_time : float;
  op_kind : op_kind;
  op_deadline : float option;
}

type checks = {
  bounds : bool;
  lcp : bool;
  committed_prefix : bool;
  ext_compat : bool;
  causal_compat : bool;
  converged : bool;
  theorem1 : bool;
}

let all_checks =
  {
    bounds = true;
    lcp = true;
    committed_prefix = true;
    ext_compat = true;
    causal_compat = true;
    converged = true;
    theorem1 = true;
  }

type plan = {
  seed : int;
  n : int;
  topology : Tact_sim.Topology.t;
  jitter : float;
  config : Config.t;
  ops : op list;
  checks : checks;
  choice_until : float option;
  until : float;
}

let conit_names = [| "x"; "y" |]

(* A sampled conit: each dimension independently constrained or free.  Only
   absolute NE bounds (never relative) and the default Even budget policy, so
   the Theorem-1 oracle stays sound over every sampled configuration. *)
let sample_conit rng name =
  let maybe p lo hi =
    if Prng.float rng 1.0 < p then Some (Prng.uniform_in rng ~lo ~hi) else None
  in
  let ne_bound = maybe 0.5 3.0 8.0 in
  let oe_bound = maybe 0.4 2.0 6.0 in
  let st_bound = maybe 0.5 0.6 2.0 in
  Conit.declare ?ne_bound ?oe_bound ?st_bound name

(* Request exactly the declared bounds, so every sampled read is satisfiable
   once the replicas synchronise (no vacuously impossible bounds). *)
let bounds_for (c : Conit.t) =
  let finite x = if x < infinity then Some x else None in
  match (finite c.ne_bound, finite c.oe_bound, finite c.st_bound) with
  | None, None, None -> Bounds.weak
  | ne, oe, st -> Bounds.make ?ne ?oe ?st ()

let sample_ops rng ~n ~horizon ~conits =
  let count = 8 + Prng.int rng 16 in
  List.init count (fun _ ->
      let op_rid = Prng.int rng n in
      let op_time = 0.1 +. Prng.float rng (horizon -. 0.1) in
      if Prng.float rng 1.0 < 0.65 then
        let conit = Prng.pick rng conit_names in
        {
          op_rid;
          op_time;
          op_kind =
            Write_op
              {
                conit;
                nweight = 0.5 +. Prng.float rng 1.5;
                oweight = 1.0;
              };
          op_deadline = None;
        }
      else
        let deps =
          let pick1 = Prng.pick rng conits in
          let deps = [ (pick1.Conit.name, bounds_for pick1) ] in
          if Prng.bool rng then
            let pick2 = Prng.pick rng conits in
            if String.equal pick2.Conit.name pick1.Conit.name then deps
            else (pick2.Conit.name, bounds_for pick2) :: deps
          else deps
        in
        {
          op_rid;
          op_time;
          op_kind = Read_op { deps };
          (* Generous: several retry periods plus many RTTs, so a fault-free
             run never times out (the O6 oracle relies on this). *)
          op_deadline = Some (op_time +. 2.0 +. Prng.float rng 4.0);
        })

(* ------------------------------------------------------------------ *)
(* Fault-schedule sampling                                             *)

let sample_fragment rng ~n ~horizon =
  let start = Prng.uniform_in rng ~lo:0.2 ~hi:(horizon *. 0.7) in
  let room = horizon -. start in
  match Prng.int rng 9 with
  | 0 ->
    let period = Prng.uniform_in rng ~lo:1.0 ~hi:2.5 in
    let rounds =
      max 1 (min (1 + Prng.int rng 3) (int_of_float (room /. period)))
    in
    Gen.rolling_partition rng ~n ~start ~period ~rounds
  | 1 ->
    Gen.asymmetric_partition rng ~n ~start
      ~duration:(Prng.uniform_in rng ~lo:1.0 ~hi:(Float.max 1.01 room))
  | 2 ->
    let period = Prng.uniform_in rng ~lo:0.6 ~hi:1.6 in
    let flaps = max 1 (min (2 + Prng.int rng 3) (int_of_float (room /. period))) in
    Gen.flapping_link rng ~n ~start ~period ~flaps
  | 3 ->
    Gen.crash_storm rng ~n ~start ~horizon
      ~mean_uptime:(Prng.uniform_in rng ~lo:1.0 ~hi:(horizon /. 2.0))
      ~mean_downtime:(Prng.uniform_in rng ~lo:0.5 ~hi:2.0)
  | 4 ->
    Gen.loss_burst rng ~start
      ~duration:(Prng.uniform_in rng ~lo:1.0 ~hi:(Float.max 1.01 room))
      ~rate:(Prng.uniform_in rng ~lo:0.1 ~hi:0.6)
  | 5 ->
    Gen.link_loss_burst rng ~n ~start
      ~duration:(Prng.uniform_in rng ~lo:1.0 ~hi:(Float.max 1.01 room))
      ~rate:(Prng.uniform_in rng ~lo:0.3 ~hi:0.9)
  | 6 ->
    Gen.duplication_storm rng ~start
      ~duration:(Prng.uniform_in rng ~lo:2.0 ~hi:(Float.max 2.01 room))
      ~rate:(Prng.uniform_in rng ~lo:0.1 ~hi:0.5)
  | 7 ->
    Gen.delay_spike rng ~start
      ~duration:(Prng.uniform_in rng ~lo:1.0 ~hi:(Float.max 1.01 room))
      ~factor:(Prng.uniform_in rng ~lo:2.0 ~hi:8.0)
  | _ ->
    Gen.bandwidth_squeeze rng ~start
      ~duration:(Prng.uniform_in rng ~lo:1.0 ~hi:(Float.max 1.01 room))
      ~factor:(Prng.uniform_in rng ~lo:0.05 ~hi:0.5)

(* Derive the whole run from the seed: the plan draws from one stream, the
   fault schedule from a second one split off a fresh stream of the same
   seed, so each is independent of how much the other consumes. *)
let draw ~seed =
  let rng = Prng.create ~seed in
  let fault_rng = Prng.split (Prng.create ~seed) in
  let n = 2 + Prng.int rng 3 in
  let latency = Prng.uniform_in rng ~lo:0.02 ~hi:0.08 in
  let topology =
    if Prng.bool rng then
      Tact_sim.Topology.uniform ~n ~latency ~bandwidth:1e8
    else Tact_sim.Topology.star ~n ~spoke:latency ~bandwidth:1e8
  in
  let jitter = Prng.pick rng [| 0.0; 0.05; 0.1 |] in
  let conits = Array.map (sample_conit rng) conit_names in
  let commit_scheme =
    if Prng.float rng 1.0 < 0.7 then Config.Stability
    else Config.Primary (Prng.int rng n)
  in
  let config =
    {
      Config.default with
      Config.conits = Array.to_list conits;
      commit_scheme;
      antientropy_period = Some (Prng.uniform_in rng ~lo:0.3 ~hi:0.8);
      retry_period = Prng.uniform_in rng ~lo:0.4 ~hi:0.8;
    }
  in
  let horizon = 6.0 +. Prng.float rng 6.0 in
  let quiet_after = horizon +. 1.0 +. Prng.float rng 2.0 in
  let ops = sample_ops rng ~n ~horizon ~conits in
  (* O3 is subsumed by O5; ext-compatibility holds under Stability only. *)
  let checks =
    {
      all_checks with
      lcp = false;
      ext_compat =
        (match commit_scheme with
        | Config.Stability -> true
        | Config.Primary _ -> false);
      converged = false;
    }
  in
  let plan =
    {
      seed;
      n;
      topology;
      jitter;
      config;
      ops;
      checks;
      choice_until = None;
      until = quiet_after +. 30.0;
    }
  in
  let fragments =
    List.init
      (1 + Prng.int fault_rng 3)
      (fun _ -> sample_fragment fault_rng ~n ~horizon)
  in
  let events =
    List.filter
      (fun (e : Fault.event) -> e.Fault.at < quiet_after -. 0.25)
      (Gen.compose fragments)
  in
  (plan, { Fault.events; quiet_after })
