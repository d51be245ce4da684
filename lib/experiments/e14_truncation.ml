open Tact_util
open Tact_sim
open Tact_store
open Tact_replica

type row = {
  keep : string;
  max_retained : int;
  snapshots : int;
  bytes : int;
  converged : bool;
}

let run_one ~keep ~duration =
  let n = 3 in
  let topology = Topology.uniform ~n ~latency:0.04 ~bandwidth:1_000_000.0 in
  let config =
    {
      Config.default with
      Config.commit_scheme = Config.Primary 0;
      antientropy_period = Some 0.5;
      truncate_keep = keep;
    }
  in
  let sys = System.create ~seed:131 ~topology ~config () in
  let engine = System.engine sys in
  (* Replica 2 is cut off for the middle half of the run. *)
  Engine.schedule engine ~delay:(duration /. 4.0) (fun () ->
      Links.partition (Net.links (System.net sys)) [ 2 ] [ 0; 1 ]);
  Engine.schedule engine ~delay:(3.0 *. duration /. 4.0) (fun () ->
      Links.heal (Net.links (System.net sys)));
  let rng = Prng.create ~seed:137 in
  for i = 0 to 1 do
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:4.0 ~until:duration
      (fun () ->
        Replica.submit_write (System.replica sys i) ~deps:[]
          ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add ("x", 1.0))
          ~k:ignore)
  done;
  let max_retained = ref 0 in
  Engine.every engine ~period:0.5 (fun () ->
      for i = 0 to n - 1 do
        max_retained := max !max_retained (Wlog.retained (Replica.log (System.replica sys i)))
      done;
      Engine.now engine < duration +. 60.0);
  System.run ~until:(duration +. 90.0) sys;
  let stats = System.total_stats sys in
  {
    keep = (match keep with None -> "unbounded" | Some k -> string_of_int k);
    max_retained = !max_retained;
    snapshots = stats.Replica.snapshots_installed;
    bytes = (System.traffic sys).Net.bytes;
    converged = System.converged sys;
  }

let run ?(quick = false) () =
  let duration = if quick then 20.0 else 60.0 in
  let tbl =
    Table.create
      ~title:
        "E14 — log truncation: retained log vs snapshot catch-up (replica 2 \
         partitioned mid-run, primary commitment)"
      ~columns:[ "keep"; "max retained log"; "snapshots installed"; "KB"; "converged" ]
  in
  List.iter
    (fun keep ->
      let r = run_one ~keep ~duration in
      Table.add_row tbl
        [ r.keep; string_of_int r.max_retained; string_of_int r.snapshots;
          Printf.sprintf "%.1f" (float_of_int r.bytes /. 1024.0);
          string_of_bool r.converged ])
    [ None; Some 200; Some 50; Some 10 ];
  Table.render tbl
  ^ "expected: smaller retention caps the log's memory footprint; once the \
     lagging replica falls behind the truncation point it catches up via \
     snapshot transfers instead of a write-by-write diff, and always \
     converges.\n"
