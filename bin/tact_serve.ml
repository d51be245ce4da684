(* The live replica daemon: one OS process per replica, real sockets, the
   hardened TCP transport, and optional nemesis fault injection at the
   network seam.

   Usage:
     tact_serve --id I --n N --port-base P [OPTIONS]

   Options:
     --client-port-base Q   client protocol port = Q + id (default P + 1000)
     --host H               bind/dial address (default 127.0.0.1)
     --seed S               master prng seed (default 42; jitter stream is
                            derived per process as S + id)
     --faults FILE.json     a nemesis fault schedule (doc/FAULTS.md JSON
                            form); events are interpreted against the
                            fault-injecting transport decorator, so
                            partitions/loss/delay disturb real sockets
     --duration D           drain and exit after D seconds (default: run
                            until SIGTERM/SIGINT)
     --backoff-base B       supervisor backoff base seconds
     --io-timeout T         read/write deadline seconds
     --request-timeout T    client access deadline seconds (default 30)
     --status-every T       print a status line to stderr every T seconds
     --trace                print every event to stderr as it happens:
                            the replica's (accepts, transfers, commits,
                            blocked accesses), the connections' and the
                            fired faults', one Event.to_string line each

   The process drains cleanly on SIGTERM or SIGINT: the client listener
   closes, parked accesses finish (bounded by the configured drain
   timeout), sockets close, and a final status JSON line goes to stdout.
   Exit status: 0 clean drain, 2 usage error. *)

open Tact_transport
module Config = Tact_replica.Config
module Replica = Tact_replica.Replica
module Fault = Tact_check.Fault
module Json = Tact_util.Json

let usage () =
  prerr_endline
    "usage: tact_serve --id I --n N --port-base P [--client-port-base Q]";
  prerr_endline
    "       [--host H] [--seed S] [--faults FILE.json] [--duration D]";
  prerr_endline
    "       [--backoff-base B] [--io-timeout T] [--request-timeout T]";
  prerr_endline "       [--status-every T]";
  exit 2

type cli = {
  mutable id : int;
  mutable n : int;
  mutable port_base : int;
  mutable client_port_base : int;
  mutable host : string;
  mutable seed : int;
  mutable faults : string option;
  mutable duration : float option;
  mutable backoff_base : float option;
  mutable io_timeout : float option;
  mutable request_timeout : float;
  mutable status_every : float option;
  mutable trace : bool;
}

let parse_cli argv =
  let c =
    {
      id = -1;
      n = 0;
      port_base = 0;
      client_port_base = -1;
      host = "127.0.0.1";
      seed = 42;
      faults = None;
      duration = None;
      backoff_base = None;
      io_timeout = None;
      request_timeout = 30.0;
      status_every = None;
      trace = false;
    }
  in
  let rec go = function
    | [] -> c
    | "--id" :: v :: rest -> c.id <- int_of_string v; go rest
    | "--n" :: v :: rest -> c.n <- int_of_string v; go rest
    | "--port-base" :: v :: rest -> c.port_base <- int_of_string v; go rest
    | "--client-port-base" :: v :: rest ->
      c.client_port_base <- int_of_string v;
      go rest
    | "--host" :: v :: rest -> c.host <- v; go rest
    | "--seed" :: v :: rest -> c.seed <- int_of_string v; go rest
    | "--faults" :: v :: rest -> c.faults <- Some v; go rest
    | "--duration" :: v :: rest -> c.duration <- Some (float_of_string v); go rest
    | "--backoff-base" :: v :: rest ->
      c.backoff_base <- Some (float_of_string v);
      go rest
    | "--io-timeout" :: v :: rest ->
      c.io_timeout <- Some (float_of_string v);
      go rest
    | "--request-timeout" :: v :: rest ->
      c.request_timeout <- float_of_string v;
      go rest
    | "--status-every" :: v :: rest ->
      c.status_every <- Some (float_of_string v);
      go rest
    | "--trace" :: rest -> c.trace <- true; go rest
    | arg :: _ ->
      Printf.eprintf "tact_serve: unknown option %s\n" arg;
      usage ()
  in
  let c = try go argv with Failure _ -> prerr_endline "tact_serve: bad numeric option"; usage () in
  if c.id < 0 || c.n <= 0 || c.id >= c.n || c.port_base <= 0 then usage ();
  if c.client_port_base < 0 then c.client_port_base <- c.port_base + 1000;
  c

(* ------------------------------------------------------------------ *)
(* Fault schedules: interpretation lives in Tact_check.Live, shared     *)
(* with the in-process integration tests.                               *)

let load_schedule ~n path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Json.parse s with
  | Error e ->
    Printf.eprintf "tact_serve: %s: bad JSON: %s\n" path e;
    exit 2
  | Ok j -> (
    match Fault.schedule_of_json j with
    | None ->
      Printf.eprintf "tact_serve: %s: not a fault schedule\n" path;
      exit 2
    | Some sched -> (
      match Fault.validate ~n sched with
      | [] -> sched
      | errs ->
        List.iter (fun e -> Printf.eprintf "tact_serve: %s: %s\n" path e) errs;
        exit 2))

(* ------------------------------------------------------------------ *)

let status_json srv =
  let r = Serve.replica srv in
  let st = Tcp.stats (Serve.tcp srv) in
  let fs = Faulty.stats (Serve.faulty srv) in
  Printf.sprintf
    "{\"id\":%d,\"up\":%b,\"log\":%d,\"pending\":%d,\"malformed\":%d,\
     \"peers_up\":%d,\"sent\":%d,\"recv\":%d,\"parked_drops\":%d,\
     \"reconnects\":%d,\"poisoned\":%d,\"f_cut\":%d,\"f_loss\":%d}"
    (Serve.id srv) (Replica.is_up r)
    (Tact_store.Wlog.num_known (Replica.log r))
    (Replica.pending_count r)
    (Replica.malformed_frames r)
    (Serve.peers_up srv) st.Tcp.sent_frames st.Tcp.recv_frames
    st.Tcp.parked_drops st.Tcp.reconnects st.Tcp.poisoned
    fs.Faulty.f_dropped_cut fs.Faulty.f_dropped_loss

let main () =
  let argv = List.tl (Array.to_list Sys.argv) in
  let c = parse_cli argv in
  let addr_of port = Unix.ADDR_INET (Unix.inet_addr_of_string c.host, port) in
  let peer_addrs = Array.init c.n (fun j -> addr_of (c.port_base + j)) in
  let client_addr = addr_of (c.client_port_base + c.id) in
  let config =
    let d = Config.default in
    let tk = d.Config.transport in
    let tk =
      match c.backoff_base with
      | Some b -> { tk with Config.backoff_base = b; backoff_cap = Float.max b tk.Config.backoff_cap }
      | None -> tk
    in
    let tk =
      match c.io_timeout with
      | Some t -> { tk with Config.io_timeout = t }
      | None -> tk
    in
    { d with Config.transport = tk }
  in
  (* --trace: every event, replica, connection and fault alike, printed as
     it is emitted. *)
  let on_event =
    if c.trace then
      Some (fun e -> Printf.eprintf "%s\n%!" (Tact_store.Event.to_string e))
    else None
  in
  let srv =
    match
      Serve.create ~request_timeout:c.request_timeout ?on_event ~id:c.id ~n:c.n
        ~peer_addrs ~client_addr ~config ~seed:(c.seed + c.id) ()
    with
    | srv -> srv
    | exception Invalid_argument e ->
      let prefix = "Serve.create: " in
      let e =
        if String.starts_with ~prefix e then
          String.sub e (String.length prefix)
            (String.length e - String.length prefix)
        else e
      in
      Printf.eprintf "tact_serve: config: %s\n" e;
      exit 2
  in
  let loop = Serve.loop srv in
  let stop_sig _ = Loop.defer loop (fun () -> Serve.request_stop srv) in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_sig);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_sig);
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (match c.faults with
  | Some path ->
    Tact_check.Live.install srv (load_schedule ~n:c.n path)
  | None -> ());
  (match c.duration with
  | Some d -> Loop.schedule loop ~tag:"duration" ~delay:d (fun () -> Serve.request_stop srv)
  | None -> ());
  (match c.status_every with
  | Some period ->
    Loop.every loop ~tag:"status" ~period (fun () ->
        Printf.eprintf "[%d] %s\n%!" c.id (status_json srv);
        not (Serve.stopped srv))
  | None -> ());
  Serve.start srv;
  Printf.eprintf "[%d] tact_serve: listening peers=%d client=%d\n%!" c.id
    (c.port_base + c.id)
    (c.client_port_base + c.id);
  Serve.run srv;
  print_endline (status_json srv)

let () =
  try main () with
  | Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "tact_serve: %s(%s): %s\n" fn arg (Unix.error_message e);
    exit 1
