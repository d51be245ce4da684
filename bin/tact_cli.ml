(* tact — command-line driver for the TACT reproduction.

   Subcommands:
     list                      enumerate the paper experiments
     exp <id|name> [--full]    run one experiment (E1..E21)
     all [--full]              run every experiment
     bboard / airline / qos    run a sample application with custom knobs *)

open Cmdliner

let full_flag =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at full (paper-scale) duration.")

(* --- list ---------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Tact_experiments.Registry.entry) ->
        Printf.printf "%-4s %-14s %s\n" e.id e.name e.paper_artifact)
      Tact_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the paper experiments.")
    Term.(const run $ const ())

(* --- exp ----------------------------------------------------------- *)

let exp_cmd =
  let key =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let run key full =
    match Tact_experiments.Registry.find key with
    | Some e ->
      print_string (e.run ~quick:(not full) ());
      `Ok ()
    | None -> `Error (false, Printf.sprintf "unknown experiment %S (try `tact list`)" key)
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Run one experiment by id (E3) or name (airline).")
    Term.(ret (const run $ key $ full_flag))

(* --- all ----------------------------------------------------------- *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ]
        ~doc:
          "Run experiments on $(docv) domains, the calling one included \
           (1 runs them one after another). Each experiment is an \
           independent deterministic simulation, so the simulated results \
           are identical at any job count." ~docv:"JOBS")

let all_cmd =
  let run full jobs =
    List.iter
      (fun ((e : Tact_experiments.Registry.entry), report) ->
        Printf.printf "\n=== %s [%s] — %s ===\n" e.id e.name e.paper_artifact;
        print_string report)
      (Tact_experiments.Registry.run_all ~jobs ~quick:(not full) ())
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment.")
    Term.(const run $ full_flag $ jobs_arg)

(* --- sample applications ------------------------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed (runs are deterministic).")

let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Number of replicas.")

let duration_arg =
  Arg.(value & opt float 60.0 & info [ "duration" ] ~doc:"Workload duration (virtual s).")

let bboard_cmd =
  let ne = Arg.(value & opt float infinity & info [ "ne" ] ~doc:"NE bound on AllMsg.") in
  let run seed n duration ne =
    let r = Tact_apps.Bboard.run ~seed ~n ~duration ~ne_bound:ne () in
    Printf.printf
      "posts=%d reads=%d msgs=%d bytes=%d\n\
       read latency: mean %.4fs p99 %.4fs; write latency: mean %.4fs\n\
       observed NE: mean %.2f max %.2f; converged=%b violations=%d\n"
      r.posts r.reads r.messages r.bytes r.mean_read_latency r.p99_read_latency
      r.mean_write_latency r.mean_observed_ne r.max_observed_ne r.converged
      r.violations
  in
  Cmd.v
    (Cmd.info "bboard" ~doc:"Run the replicated bulletin board.")
    Term.(const run $ seed_arg $ n_arg $ duration_arg $ ne)

let airline_cmd =
  let rel = Arg.(value & opt float infinity & info [ "rel-ne" ] ~doc:"Relative NE bound per flight.") in
  let flights = Arg.(value & opt int 4 & info [ "flights" ] ~doc:"Number of flights.") in
  let seats = Arg.(value & opt int 200 & info [ "seats" ] ~doc:"Seats per flight.") in
  let run seed n duration rel flights seats =
    let r = Tact_apps.Airline.run ~seed ~n ~duration ~ne_rel:rel ~flights ~seats () in
    Printf.printf
      "attempts=%d tentative-conflicts=%d final-conflicts=%d conflict-rate=%.4f\n\
       measured relative NE %.4f (paper: conflict rate ~= relative NE)\n\
       msgs=%d bytes=%d write latency %.4fs violations=%d\n"
      r.attempts r.tentative_conflicts r.final_conflicts r.conflict_rate
      r.mean_rel_ne r.messages r.bytes r.mean_write_latency r.violations
  in
  Cmd.v
    (Cmd.info "airline" ~doc:"Run the airline reservation system.")
    Term.(const run $ seed_arg $ n_arg $ duration_arg $ rel $ flights $ seats)

let qos_cmd =
  let ne = Arg.(value & opt float infinity & info [ "ne" ] ~doc:"NE bound per load conit.") in
  let run seed n duration ne =
    let r = Tact_apps.Qos.run ~seed ~n ~duration ~ne_bound:ne () in
    Printf.printf
      "requests=%d misroutes=%d (rate %.4f) imbalance=%.2f load-error=%.2f\n\
       msgs=%d bytes=%d violations=%d\n"
      r.requests r.misroutes r.misroute_rate r.mean_imbalance r.mean_load_error
      r.messages r.bytes r.violations
  in
  Cmd.v
    (Cmd.info "qos" ~doc:"Run the QoS web-server load balancer.")
    Term.(const run $ seed_arg $ n_arg $ duration_arg $ ne)

let vworld_cmd =
  let near = Arg.(value & opt float 1.0 & info [ "near" ] ~doc:"Focus position accuracy.") in
  let far = Arg.(value & opt float 20.0 & info [ "far" ] ~doc:"Peripheral position accuracy.") in
  let run seed n duration near far =
    let r = Tact_apps.Vworld.run ~seed ~n ~duration ~near_bound:near ~far_bound:far () in
    Printf.printf
      "moves=%d
       focus observations:      error %.3f, latency %.4fs (bound %.1f)
       peripheral observations: error %.3f, latency %.4fs (bound %.1f)
       msgs=%d bytes=%d violations=%d
"
      r.moves r.near_err r.near_lat r.near_bound r.far_err r.far_lat r.far_bound
      r.messages r.bytes r.violations
  in
  Cmd.v
    (Cmd.info "vworld" ~doc:"Run the virtual world (focus/nimbus QoS).")
    Term.(const run $ seed_arg $ n_arg $ duration_arg $ near $ far)

let roads_cmd =
  let ne = Arg.(value & opt float infinity & info [ "ne" ] ~doc:"NE bound per road-section conit.") in
  let sections = Arg.(value & opt int 4 & info [ "sections" ] ~doc:"Parallel road sections.") in
  let run seed n duration ne sections =
    let r = Tact_apps.Roads.run ~seed ~n ~duration ~ne_bound:ne ~sections () in
    Printf.printf
      "trips=%d rejected=%d occupancy spread=%.2f worst=%.0f msgs=%d violations=%d
"
      r.trips r.rejected r.mean_spread r.worst_overload r.messages r.violations
  in
  Cmd.v
    (Cmd.info "roads" ~doc:"Run traffic monitoring / road reservation.")
    Term.(const run $ seed_arg $ n_arg $ duration_arg $ ne $ sections)

let trace_cmd =
  let last = Arg.(value & opt int 40 & info [ "last" ] ~doc:"How many trailing events to print.") in
  let run last =
    (* A small traced scenario: three replicas, a strong read across a brief
       partition. *)
    let open Tact_sim in
    let open Tact_store in
    let open Tact_core in
    let open Tact_replica in
    let events = ref [] (* newest first *) in
    let config =
      {
        Config.default with
        Config.conits = [ Conit.declare "c" ];
        antientropy_period = Some 1.0;
      }
    in
    let sys =
      System.create
        ~on_event:(fun e -> events := e :: !events)
        ~topology:(Topology.uniform ~n:3 ~latency:0.05 ~bandwidth:1e6)
        ~config ()
    in
    let engine = System.engine sys in
    Engine.schedule engine ~delay:0.2 (fun () ->
        Replica.submit_write (System.replica sys 0) ~deps:[]
          ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add ("x", 1.0)) ~k:ignore);
    Engine.schedule engine ~delay:1.0 (fun () ->
        Links.partition (Net.links (System.net sys)) [ 2 ] [ 0; 1 ]);
    Engine.schedule engine ~delay:1.5 (fun () ->
        Replica.submit_read (System.replica sys 2)
          ~deps:[ ("c", Bounds.strong) ]
          ~f:(fun db -> Db.get db "x")
          ~k:ignore);
    Engine.schedule engine ~delay:4.0 (fun () -> Links.heal (Net.links (System.net sys)));
    System.run ~until:20.0 sys;
    Printf.printf
      "scenario: write at replica 0; replica 2 partitioned at t=1, issues a        strong read at t=1.5, partition heals at t=4.

";
    List.filteri (fun i _ -> i < last) !events
    |> List.rev
    |> List.iter (fun e -> print_endline (Event.to_string e))
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a small traced scenario and print the event log.")
    Term.(const run $ last)

let () =
  let info =
    Cmd.info "tact" ~version:"1.0.0"
      ~doc:"Conit-based continuous consistency for wide-area replication (ICDCS 2001 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; exp_cmd; all_cmd; bboard_cmd; airline_cmd; qos_cmd;
            vworld_cmd; roads_cmd; trace_cmd ]))
