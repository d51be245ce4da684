open Tact_util
open Tact_sim
open Tact_store
open Tact_core
open Tact_replica

let flight_conit f = Printf.sprintf "flight.%d" f
let flight_key f = Printf.sprintf "taken.%d" f

let taken_seats db flight =
  List.map Value.to_int (Value.to_list (Db.get db (flight_key flight)))

(* The reservation write procedure: re-checks the seat against the database
   it is being applied to — the application-specific conflict check of the
   paper's system model. *)
let reserve_proc arg db =
  match arg with
  | Value.List [ Value.Int flight; Value.Int seat ] ->
    if List.mem seat (taken_seats db flight) then
      Op.Conflict (Printf.sprintf "seat %d already taken" seat)
    else begin
      Db.append db (flight_key flight) (Value.Int seat);
      Op.Applied (Value.Int seat)
    end
  | _ -> Op.Conflict "airline.reserve: bad argument"

let procs = [ ("airline.reserve", reserve_proc) ]

let reserve_op ~flight ~seat =
  Op.Named ("airline.reserve", Value.List [ Value.Int flight; Value.Int seat ])

let reserve session ~rng ~flight ~seats ~k =
  let replica = Session.replica session in
  let taken = taken_seats (Replica.db replica) flight in
  let free = List.filter (fun s -> not (List.mem s taken)) (List.init seats Fun.id) in
  match free with
  | [] -> k (Op.Conflict "flight observed full")
  | _ ->
    let seat = List.nth free (Prng.int rng (List.length free)) in
    Session.affect_conit session (flight_conit flight) ~nweight:(-1.0) ~oweight:1.0;
    Session.write session (reserve_op ~flight ~seat) ~k

type result = {
  attempts : int;
  tentative_conflicts : int;
  final_conflicts : int;
  conflict_rate : float;
  mean_rel_ne : float;
  messages : int;
  bytes : int;
  mean_write_latency : float;
  violations : int;
}

let run ?(seed = 1) ?(n = 4) ?(flights = 4) ?(seats = 200) ?(rate = 2.0)
    ?(duration = 60.0) ?(latency = 0.04) ?(ne_rel = infinity) () =
  let topology = Topology.uniform ~n ~latency ~bandwidth:1_000_000.0 in
  let config =
    {
      Config.default with
      Config.conits =
        List.init flights (fun f ->
            Conit.declare ~ne_rel_bound:ne_rel
              ~initial_value:(float_of_int seats) (flight_conit f));
      antientropy_period = Some 1.0;
      procs;
    }
  in
  let sys = System.create ~seed ~topology ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:(seed + 13) in
  let attempts = ref 0 and tentative_conflicts = ref 0 in
  let write_lat = Stats.create () in
  let rel_ne = Stats.create () in
  (* Omniscient per-flight acceptance counters, for measuring true relative
     NE at reservation time. *)
  let global_reserved = Array.make flights 0 in
  for i = 0 to n - 1 do
    let session = Session.create (System.replica sys i) in
    let wrng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:wrng ~rate ~until:duration (fun () ->
        let flight = Prng.int wrng flights in
        let t0 = Engine.now engine in
        (* True relative NE of this flight's conit at this replica, now. *)
        let local =
          -.Wlog.conit_value (Replica.log (System.replica sys i)) (flight_conit flight)
        in
        let actual_avail = float_of_int (seats - global_reserved.(flight)) in
        if actual_avail > 0.0 then
          Stats.add rel_ne ((float_of_int global_reserved.(flight) -. local) /. actual_avail);
        incr attempts;
        global_reserved.(flight) <- global_reserved.(flight) + 1;
        reserve session ~rng:wrng ~flight ~seats ~k:(fun outcome ->
            Stats.add write_lat (Engine.now engine -. t0);
            if Op.conflicted outcome then begin
              incr tentative_conflicts;
              (* The seat was never taken; correct the omniscient counter. *)
              global_reserved.(flight) <- global_reserved.(flight) - 1
            end))
  done;
  System.run ~until:(duration +. 120.0) sys;
  (* Count conflicts under the committed order (the actual results). *)
  let log0 = Replica.log (System.replica sys 0) in
  let final_conflicts = ref 0 and committed_writes = ref 0 in
  List.iter
    (fun (w : Write.t) ->
      incr committed_writes;
      match Wlog.final_outcome log0 w.id with
      | Some o -> if Op.conflicted o then incr final_conflicts
      | None -> ())
    (Wlog.committed log0);
  let traffic = System.traffic sys in
  {
    attempts = !attempts;
    tentative_conflicts = !tentative_conflicts;
    final_conflicts = !final_conflicts;
    conflict_rate =
      (if !attempts = 0 then 0.0
       else float_of_int !final_conflicts /. float_of_int !attempts);
    mean_rel_ne = (if Stats.count rel_ne = 0 then 0.0 else Stats.mean rel_ne);
    messages = traffic.Net.messages;
    bytes = traffic.Net.bytes;
    mean_write_latency =
      (if Stats.count write_lat = 0 then 0.0 else Stats.mean write_lat);
    violations = List.length (Verify.check sys);
  }
