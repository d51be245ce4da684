open Tact_util
open Tact_sim
open Tact_store
open Tact_replica

let pos_conit e = Printf.sprintf "pos.%d" e
let x_key e = Printf.sprintf "pos.%d.x" e
let y_key e = Printf.sprintf "pos.%d.y" e

let move_proc arg db =
  match arg with
  | Value.List [ Value.Int entity; Value.Float dx; Value.Float dy ] ->
    ignore (Db.add db (x_key entity) dx);
    ignore (Db.add db (y_key entity) dy);
    Op.Applied Value.Nil
  | _ -> Op.Conflict "vworld.move: bad argument"

let procs = [ ("vworld.move", move_proc) ]

let move session ~entity ~dx ~dy ~k =
  let dist = sqrt ((dx *. dx) +. (dy *. dy)) in
  Session.affect_conit session (pos_conit entity) ~nweight:dist ~oweight:0.0;
  Session.write session
    (Op.Named
       ("vworld.move", Value.List [ Value.Int entity; Value.Float dx; Value.Float dy ]))
    ~k

let position db ~entity = (Db.get_float db (x_key entity), Db.get_float db (y_key entity))

let observe session ~entity ~accuracy ~k =
  Session.dependon_conit session (pos_conit entity) ~ne:accuracy ();
  Session.read session
    (fun db ->
      let x, y = position db ~entity in
      Value.List [ Value.Float x; Value.Float y ])
    ~k:(fun v ->
      match v with
      | Value.List [ Value.Float x; Value.Float y ] -> k (x, y)
      | _ -> k (nan, nan))

type result = {
  moves : int;
  near_err : float;
  far_err : float;
  near_lat : float;
  far_lat : float;
  near_bound : float;
  far_bound : float;
  messages : int;
  bytes : int;
  violations : int;
}

let run ?(seed = 1) ?(n = 4) ?(move_rate = 4.0) ?(observe_rate = 2.0)
    ?(duration = 30.0) ?(near_bound = 1.0) ?(far_bound = 20.0) () =
  let topology = Topology.uniform ~n ~latency:0.04 ~bandwidth:1_000_000.0 in
  let config =
    {
      Config.default with
      Config.conits =
        (* Pushes maintain only the loose, peripheral accuracy system-wide;
           an in-focus observation requests a tighter bound and pays for it
           itself with a pull round (self-determination, Theorem 1). *)
        List.init n (fun e -> Tact_core.Conit.declare ~ne_bound:far_bound (pos_conit e));
      antientropy_period = Some 2.0;
      procs;
    }
  in
  let sys = System.create ~seed ~topology ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:(seed + 23) in
  (* Omniscient true positions. *)
  let true_x = Array.make n 0.0 and true_y = Array.make n 0.0 in
  let moves = ref 0 in
  let near_err = Stats.create () and far_err = Stats.create () in
  let near_lat = Stats.create () and far_lat = Stats.create () in
  for i = 0 to n - 1 do
    let session = Session.create (System.replica sys i) in
    let mrng = Prng.split rng in
    (* Avatar i random-walks. *)
    Tact_workload.Workload.poisson engine ~rng:mrng ~rate:move_rate ~until:duration
      (fun () ->
        incr moves;
        let dx = Prng.uniform_in mrng ~lo:(-0.5) ~hi:0.5 in
        let dy = Prng.uniform_in mrng ~lo:(-0.5) ~hi:0.5 in
        true_x.(i) <- true_x.(i) +. dx;
        true_y.(i) <- true_y.(i) +. dy;
        move session ~entity:i ~dx ~dy ~k:ignore);
    (* Avatar i observes: its focus target tightly, the rest loosely. *)
    let orng = Prng.split rng in
    let focus = if i = 0 then 1 else 0 in
    Tact_workload.Workload.poisson engine ~rng:orng ~rate:observe_rate ~until:duration
      (fun () ->
        let target =
          if Prng.bool orng then focus
          else begin
            let other = ref (Prng.int orng n) in
            while !other = i do
              other := Prng.int orng n
            done;
            !other
          end
        in
        let accuracy = if target = focus then near_bound else far_bound in
        let tx = true_x.(target) and ty = true_y.(target) in
        let t0 = Engine.now engine in
        observe session ~entity:target ~accuracy ~k:(fun (x, y) ->
            let err = sqrt (((x -. tx) ** 2.0) +. ((y -. ty) ** 2.0)) in
            if target = focus then begin
              Stats.add near_err err;
              Stats.add near_lat (Engine.now engine -. t0)
            end
            else begin
              Stats.add far_err err;
              Stats.add far_lat (Engine.now engine -. t0)
            end))
  done;
  System.run ~until:(duration +. 90.0) sys;
  let traffic = System.traffic sys in
  {
    moves = !moves;
    near_err = (if Stats.count near_err = 0 then 0.0 else Stats.mean near_err);
    far_err = (if Stats.count far_err = 0 then 0.0 else Stats.mean far_err);
    near_lat = (if Stats.count near_lat = 0 then 0.0 else Stats.mean near_lat);
    far_lat = (if Stats.count far_lat = 0 then 0.0 else Stats.mean far_lat);
    near_bound;
    far_bound;
    messages = traffic.Net.messages;
    bytes = traffic.Net.bytes;
    violations = List.length (Verify.check sys);
  }
