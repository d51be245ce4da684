(* Quickstart: three replicas across a simulated WAN share one numeric
   record.  A conit bounds how inaccurate any replica's view may get, and a
   strong read shows the other end of the consistency spectrum.

   Run with: dune exec examples/quickstart.exe *)

open Tact_sim
open Tact_core
open Tact_replica

let () =
  (* Three replicas, 40 ms one-way latency, conit "record.temp" may be off by
     at most 5 units anywhere, proactively maintained by pushes. *)
  let topology = Topology.uniform ~n:3 ~latency:0.04 ~bandwidth:1_000_000.0 in
  let config =
    {
      Config.default with
      Config.conits = [ Conit.declare ~ne_bound:5.0 (Tact_apps.Sensor.record_conit "temp") ];
      antientropy_period = Some 2.0;
    }
  in
  let sys = System.create ~topology ~config () in
  let engine = System.engine sys in
  let sensors = Array.init 3 (fun i -> Session.create (System.replica sys i)) in

  (* Replicas 0 and 1 report temperature deltas over 30 virtual seconds. *)
  Tact_workload.Workload.staggered engine ~start:0.5 ~gap:1.0 ~count:30 (fun k ->
      let s = sensors.(k mod 2) in
      Tact_apps.Sensor.report s ~record:"temp" ~delta:1.0 ~k:(fun _ -> ()));

  (* Replica 2 queries with two different accuracy requirements. *)
  Engine.schedule engine ~delay:15.0 (fun () ->
      Tact_apps.Sensor.query sensors.(2) ~record:"temp" ~max_error:5.0
        ~k:(fun v ->
          Printf.printf "[t=%5.2fs] casual query  (error <= 5): temp = %g\n"
            (Engine.now engine) v));
  Engine.schedule engine ~delay:15.0 (fun () ->
      Tact_apps.Sensor.query sensors.(2) ~record:"temp" ~max_error:0.0
        ~k:(fun v ->
          Printf.printf "[t=%5.2fs] strong query  (error  = 0): temp = %g\n"
            (Engine.now engine) v));

  System.run ~until:120.0 sys;
  let traffic = System.traffic sys in
  Printf.printf "writes accepted: %d; network: %d messages, %d bytes\n"
    (System.write_count sys) traffic.Net.messages traffic.Net.bytes;
  Printf.printf "replicas converged: %b; bound violations: %d\n"
    (System.converged sys)
    (List.length (Verify.check sys))
