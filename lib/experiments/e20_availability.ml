open Tact_util
open Tact_sim
open Tact_store
open Tact_core
open Tact_replica

(* One partition window; reads at a disconnected replica with a deadline. *)
let run_one ~bound ~deadline ~duration =
  let n = 3 in
  let topology = Topology.uniform ~n ~latency:0.04 ~bandwidth:1_000_000.0 in
  let config =
    {
      Config.default with
      Config.conits = [ Conit.declare "c" ];
      antientropy_period = Some 0.5;
    }
  in
  let sys = System.create ~seed:197 ~topology ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:199 in
  (* Writers at the connected majority. *)
  for i = 0 to 1 do
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.0 ~until:duration
      (fun () ->
        Replica.submit_write (System.replica sys i) ~deps:[]
          ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add ("x", 1.0))
          ~k:ignore)
  done;
  (* Replica 2 is partitioned for the middle half of the run. *)
  Engine.schedule engine ~delay:(duration /. 4.0) (fun () ->
      Links.partition (Net.links (System.net sys)) [ 2 ] [ 0; 1 ]);
  Engine.schedule engine ~delay:(3.0 *. duration /. 4.0) (fun () ->
      Links.heal (Net.links (System.net sys)));
  (* Bounded reads with deadlines at the partitioned replica. *)
  let served = ref 0 and timeouts = ref 0 in
  let rrng = Prng.split rng in
  Tact_workload.Workload.poisson engine ~rng:rrng ~rate:1.0 ~until:duration
    (fun () ->
      Replica.submit_read (System.replica sys 2)
        ~deadline:(Engine.now engine +. deadline)
        ~on_timeout:(fun () -> incr timeouts)
        ~deps:[ ("c", bound) ]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun _ -> incr served));
  System.run ~until:(duration +. 120.0) sys;
  let total = !served + !timeouts in
  if total = 0 then 0.0 else float_of_int !timeouts /. float_of_int total

let run ?(quick = false) () =
  let duration = if quick then 20.0 else 60.0 in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "E20 — availability under a %gs partition: read timeout rate at the \
            disconnected replica"
           (duration /. 2.0))
      ~columns:[ "consistency level"; "deadline 1s"; "deadline 5s" ]
  in
  List.iter
    (fun (label, bound) ->
      let cell d = Printf.sprintf "%.0f%%" (100.0 *. run_one ~bound ~deadline:d ~duration) in
      Table.add_row tbl [ label; cell 1.0; cell 5.0 ])
    [
      ("strong (0,0,0)", Bounds.strong);
      (Printf.sprintf "st <= %gs" (duration /. 8.0), Bounds.make ~st:(duration /. 8.0) ());
      ("weak", Bounds.weak);
    ];
  Table.render tbl
  ^ "expected: strong reads are unavailable for the whole partition; bounded \
     staleness buys availability for as long as its bound outlasts the \
     outage; weak reads never time out — the consistency axis of CAP made \
     continuous.\n"
