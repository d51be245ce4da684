open Tact_util
open Tact_sim
open Tact_store
open Tact_replica

type row = {
  scheme : string;
  committed_during_partition : int;
  committed_total : int;
  committed_at_end : int;
  writes : int;
  ext_compatible : bool;
  messages : int;
}

let commit_progress ~node ~period ~until =
  let steps = ref [] (* (time, running total) *) and total = ref 0 in
  let sink (e : Event.t) =
    match e.Event.kind with
    | Event.Commit { writes; _ } when e.Event.node = node ->
      total := !total + writes;
      steps := (e.Event.time, !total) :: !steps
    | _ -> ()
  in
  let at time =
    List.fold_left (fun acc (t, c) -> if t <= time then max acc c else acc) 0 !steps
  in
  let series () =
    List.init (int_of_float (Float.ceil (until /. period))) (fun i ->
        let time = float_of_int (i + 1) *. period in
        (time, float_of_int (at time)))
  in
  (sink, series)

let run_scheme ~scheme ~label ~duration =
  let n = 4 in
  let part_start = duration /. 3.0 and part_end = 2.0 *. duration /. 3.0 in
  let topology = Topology.uniform ~n ~latency:0.04 ~bandwidth:1_000_000.0 in
  let config =
    {
      Config.default with
      Config.commit_scheme = scheme;
      antientropy_period = Some 0.5;
    }
  in
  let on_event, progress =
    commit_progress ~node:0 ~period:1.0 ~until:(duration +. 30.0)
  in
  let sys = System.create ~seed:113 ~on_event ~topology ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:127 in
  let writes = ref 0 in
  for i = 0 to n - 1 do
    let r = System.replica sys i in
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.0 ~until:duration
      (fun () ->
        incr writes;
        Replica.submit_write r ~deps:[]
          ~affects:[ { Write.conit = "all"; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add ("x", 1.0))
          ~k:ignore)
  done;
  (* Disconnect replica 3 (never the primary) for the middle third. *)
  Engine.schedule engine ~delay:part_start (fun () ->
      Links.partition (Net.links (System.net sys)) [ 3 ] [ 0; 1; 2 ]);
  let committed_during = ref 0 in
  Engine.schedule engine ~delay:(part_end -. 0.01) (fun () ->
      committed_during := Wlog.committed_count (Replica.log (System.replica sys 0)));
  Engine.schedule engine ~delay:part_end (fun () -> Links.heal (Net.links (System.net sys)));
  System.run ~until:(duration +. 120.0) sys;
  let series = (label, progress ()) in
  let log0 = Replica.log (System.replica sys 0) in
  let return_time = System.return_time sys in
  ( {
      scheme = label;
      committed_during_partition = !committed_during;
      committed_total = Wlog.committed_count log0;
      committed_at_end = Wlog.committed_count log0;
      writes = !writes;
      ext_compatible =
        Tact_core.Ecg.externally_compatible ~order:(Wlog.committed log0)
          ~return_time;
      messages = (System.traffic sys).Net.messages;
    },
    series )

let run ?(quick = false) () =
  let duration = if quick then 18.0 else 60.0 in
  let results =
    [
      run_scheme ~scheme:Config.Stability ~label:"stability (timestamp)" ~duration;
      run_scheme ~scheme:(Config.Primary 0) ~label:"primary (CSN @ 0)" ~duration;
    ]
  in
  let rows = List.map fst results in
  let progress_series = List.map snd results in
  let tbl =
    Table.create
      ~title:
        "E12 — commitment schemes: replica 3 partitioned for the middle third \
         of the run (4 replicas)"
      ~columns:
        [ "scheme"; "writes"; "committed@0 during partition"; "committed@0 end";
          "ext-order compatible"; "msgs" ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [ r.scheme; string_of_int r.writes;
          string_of_int r.committed_during_partition;
          string_of_int r.committed_at_end; string_of_bool r.ext_compatible;
          string_of_int r.messages ])
    rows;
  Table.render tbl
  ^ Plot.series ~title:"commit progress at replica 0 over time (partition in the middle third)"
      progress_series
  ^ "expected: stability stalls commitment during the partition (it needs \
     covers from every origin) but yields the external-order-compatible \
     canonical order; the primary scheme keeps committing among the \
     connected replicas.\n"
