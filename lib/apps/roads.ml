open Tact_util
open Tact_sim
open Tact_store
open Tact_replica

let section_conit s = Printf.sprintf "road.%d" s
let section_key s = Printf.sprintf "road.%d" s

let enter_proc arg db =
  match arg with
  | Value.List [ Value.Int section; Value.Float weight; Value.Int capacity ] ->
    if Db.get_float db (section_key section) +. weight > float_of_int capacity
    then Op.Conflict "section full"
    else Op.Applied (Db.add db (section_key section) weight)
  | _ -> Op.Conflict "roads.enter: bad argument"

let procs = [ ("roads.enter", enter_proc) ]

let reserve_section ?(weight = 1.0) session ~section ~capacity ~k =
  Session.affect_conit session (section_conit section) ~nweight:weight ~oweight:1.0;
  Session.write session
    (Op.Named
       ( "roads.enter",
         Value.List [ Value.Int section; Value.Float weight; Value.Int capacity ] ))
    ~k

let leave_section session ~section ~weight ~k =
  Session.affect_conit session (section_conit section) ~nweight:(-.weight) ~oweight:1.0;
  Session.write session (Op.Add (section_key section, -.weight)) ~k

let observed_occupancy db ~section = Db.get_float db (section_key section)

type result = {
  trips : int;
  rejected : int;
  mean_spread : float;
  worst_overload : float;
  messages : int;
  violations : int;
}

let run ?(seed = 1) ?(n = 4) ?(sections = 4) ?(capacity = 1000) ?(rate = 3.0)
    ?(trip_time = 5.0) ?(duration = 40.0) ?(ne_bound = infinity) () =
  let topology = Topology.uniform ~n ~latency:0.04 ~bandwidth:1_000_000.0 in
  let config =
    {
      Config.default with
      Config.conits =
        List.init sections (fun s -> Tact_core.Conit.declare ~ne_bound (section_conit s));
      antientropy_period = Some 2.0;
      procs;
    }
  in
  let sys = System.create ~seed ~topology ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:(seed + 29) in
  let trips = ref 0 and rejected = ref 0 in
  let true_occ = Array.make sections 0.0 in
  let spread = Stats.create () in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let session = Session.create (System.replica sys i) in
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate ~until:duration (fun () ->
        incr trips;
        (* The driver picks the least-occupied section as observed locally. *)
        let db = Replica.db (System.replica sys i) in
        let best = ref 0 and best_occ = ref infinity in
        for s = 0 to sections - 1 do
          let occ = observed_occupancy db ~section:s in
          if occ < !best_occ then begin
            best_occ := occ;
            best := s
          end
        done;
        let s = !best in
        reserve_section session ~section:s ~capacity ~k:(fun outcome ->
            if Op.conflicted outcome then incr rejected
            else begin
              true_occ.(s) <- true_occ.(s) +. 1.0;
              if true_occ.(s) > !worst then worst := true_occ.(s);
              Engine.schedule engine
                ~delay:(Prng.exponential prng ~mean:trip_time)
                (fun () ->
                  true_occ.(s) <- true_occ.(s) -. 1.0;
                  leave_section session ~section:s ~weight:1.0 ~k:ignore)
            end))
  done;
  Engine.every engine ~period:1.0 (fun () ->
      let st = Stats.create () in
      Array.iter (Stats.add st) true_occ;
      Stats.add spread (Stats.stddev st);
      Engine.now engine < duration);
  System.run ~until:(duration +. 90.0) sys;
  {
    trips = !trips;
    rejected = !rejected;
    mean_spread = (if Stats.count spread = 0 then 0.0 else Stats.mean spread);
    worst_overload = !worst;
    messages = (System.traffic sys).Net.messages;
    violations = List.length (Verify.check sys);
  }
