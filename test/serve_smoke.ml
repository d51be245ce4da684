(* Process-level smoke for the tact_serve daemon (CI job "serve-smoke").

   Spawns three real tact_serve processes on loopback, hands every one the
   same nemesis fault schedule (a rolling partition plus a delay spike,
   interpreted at the real-network seam by the fault-injecting transport
   decorator), drives a client workload through the disturbance, and then
   checks the paper's two live-system promises:

   - availability: every weak write submitted during the faults is
     accepted (replicas degrade within declared bounds, they do not fail);
   - convergence: after the quiescent tail heals the network, a query
     under a staleness bound returns the same total at all three replicas.

   Accounting must come back clean — no malformed frames, no parked-frame
   drops — and a SIGTERM drain must exit 0 at every process.

   Usage: serve_smoke.exe path/to/tact_serve.exe
   Logs (per-process stderr + final status) land in ./serve-smoke-logs/ so
   CI can upload them on failure.  Exits 0 on success, 1 on any check
   failure, 2 on setup problems. *)

open Tact_util
open Tact_store
open Tact_transport
module Fault = Tact_check.Fault
module Gen = Tact_check.Gen
module Json = Tact_util.Json

let n = 3
let log_dir = "serve-smoke-logs"
let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("serve_smoke: " ^ m); exit 1) fmt
let setup_fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("serve_smoke: " ^ m); exit 2) fmt

(* ---- ports: find a base where 2n consecutive loopback ports are free --- *)

let range_free base count =
  let ok = ref true in
  for p = base to base + count - 1 do
    if !ok then begin
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p)) with
      | () -> ()
      | exception Unix.Unix_error _ -> ok := false);
      Unix.close fd
    end
  done;
  !ok

let pick_port_base () =
  let rng = Prng.create ~seed:(Unix.getpid ()) in
  let rec go attempts =
    if attempts = 0 then setup_fail "no free port range found";
    let base = 20000 + (2 * Prng.int rng 10000) in
    if range_free base n && range_free (base + 1000) n then base else go (attempts - 1)
  in
  go 50

(* ---- the schedule: same shape the in-process nemesis test uses -------- *)

let write_schedule path =
  let rng = Prng.create ~seed:77 in
  let sched =
    {
      Fault.events =
        Gen.compose
          [
            Gen.rolling_partition rng ~n ~start:0.2 ~period:0.4 ~rounds:3;
            Gen.delay_spike rng ~start:0.3 ~duration:0.6 ~factor:4.0;
          ];
      quiet_after = 1.6;
    }
  in
  (match Fault.validate ~n sched with
  | [] -> ()
  | errs -> setup_fail "bad schedule: %s" (String.concat "; " errs));
  let oc = open_out path in
  output_string oc (Json.to_string ~indent:true (Fault.schedule_to_json sched));
  output_string oc "\n";
  close_out oc

(* ---- the --trace stream: one Event.to_string line per event ----------- *)

(* The kind label of an event line ("[time] replica N kind detail"). *)
let event_kind line =
  match String.index_opt line ']' with
  | None -> None
  | Some i -> (
    match
      List.filter (( <> ) "")
        (String.split_on_char ' ' (String.sub line (i + 1) (String.length line - i - 1)))
    with
    | "replica" :: _ :: kind :: _ -> Some kind
    | _ -> None)

let replica_kinds =
  [ "accept"; "transfer"; "commit"; "snapshot"; "blocked"; "served"; "malformed";
    "wrong-shard"; "crash"; "recover" ]

let connection_kinds =
  [ "link"; "enqueue"; "park"; "recv"; "hello"; "ack"; "write-fail"; "dropped" ]

(* Each daemon's stderr log must carry replica, connection and fault events:
   one stream, printed as emitted. *)
let check_trace_logs () =
  for i = 0 to n - 1 do
    let ic = open_in (Filename.concat log_dir (Printf.sprintf "replica-%d.stderr" i)) in
    let kinds = ref [] in
    (try
       while true do
         match event_kind (input_line ic) with
         | Some k -> kinds := k :: !kinds
         | None -> ()
       done
     with End_of_file -> close_in ic);
    let has among = List.exists (fun k -> List.mem k among) !kinds in
    if not (has replica_kinds) then fail "replica %d traced no replica event" i;
    if not (has connection_kinds) then fail "replica %d traced no connection event" i;
    if not (has [ "fault" ]) then fail "replica %d traced no fault" i
  done

(* ---- a small blocking client for the Serve protocol ------------------- *)

let rec really_write fd s off len =
  if len > 0 then begin
    let w = Unix.write_substring fd s off len in
    really_write fd s (off + w) (len - w)
  end

let rec really_read fd buf off len =
  if len > 0 then
    match Unix.read fd buf off len with
    | 0 -> raise End_of_file
    | r -> really_read fd buf (off + r) (len - r)

let connect_with_retry port ~deadline =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
      fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then
        fail "replica on port %d never started accepting" port
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

let rpc fd req =
  let payload = Client.request_to_string req in
  let msg = Transport.encode_frame_header ~len:(String.length payload) ^ payload in
  really_write fd msg 0 (String.length msg);
  let hdr = Bytes.create Transport.frame_header_size in
  really_read fd hdr 0 Transport.frame_header_size;
  let len =
    match
      Transport.decode_frame_header hdr ~off:0 ~avail:Transport.frame_header_size
    with
    | Ok (Some len) -> len
    | Ok None | Error _ -> fail "bad response frame header"
  in
  let body = Bytes.create len in
  really_read fd body 0 len;
  match Client.decode_response (Bytes.to_string body) with
  | Ok resp -> resp
  | Error e -> fail "response does not decode: %s" (Transport.error_to_string e)

(* ---------------------------------------------------------------------- *)

let () =
  if Array.length Sys.argv < 2 then setup_fail "usage: serve_smoke.exe TACT_SERVE_EXE";
  let serve_exe = Sys.argv.(1) in
  if not (Sys.file_exists serve_exe) then setup_fail "%s does not exist" serve_exe;
  (try Unix.mkdir log_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let port_base = pick_port_base () in
  let client_base = port_base + 1000 in
  let sched_path = Filename.concat log_dir "schedule.json" in
  write_schedule sched_path;

  let traced = Sys.getenv_opt "TACT_SMOKE_TRACE" <> None in
  (* Spawn the three daemons; stderr (fault traces, status lines) and the
     final status JSON on stdout go to per-process logs. *)
  let spawn id =
    let out =
      Unix.openfile
        (Filename.concat log_dir (Printf.sprintf "replica-%d.stdout" id))
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
        0o644
    and err =
      Unix.openfile
        (Filename.concat log_dir (Printf.sprintf "replica-%d.stderr" id))
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
        0o644
    in
    let args =
      [|
        serve_exe; "--id"; string_of_int id; "--n"; string_of_int n;
        "--port-base"; string_of_int port_base;
        "--client-port-base"; string_of_int client_base;
        "--seed"; "7"; "--faults"; sched_path;
        "--backoff-base"; "0.05"; "--io-timeout"; "2";
        "--status-every"; "1";
      |]
    in
    (* TACT_SMOKE_TRACE=1 streams each daemon's events into its stderr log
       (a post-mortem for a CI failure) and checks the stream afterwards. *)
    let args =
      if traced then
        Array.append args [| "--trace" |]
      else args
    in
    let pid = Unix.create_process serve_exe args Unix.stdin out err in
    Unix.close out;
    Unix.close err;
    pid
  in
  let pids = Array.init n spawn in
  let deadline = Unix.gettimeofday () +. 15.0 in
  let clients = Array.init n (fun i -> connect_with_retry (client_base + i) ~deadline) in

  (* Availability: weak writes to every replica while the schedule runs.
     The submits themselves space the rounds out across the fault window. *)
  let submitted = ref 0 in
  for round = 1 to 4 do
    Array.iteri
      (fun i fd ->
        match
          rpc fd
            (Client.Submit
               { conit = "c"; nweight = 1.0; oweight = 1.0; op = Op.Add ("x", 1.0) })
        with
        | Client.Outcome (Op.Applied _) -> incr submitted
        | r ->
          fail "round %d: write to replica %d not applied: %s" round i
            (Client.describe_response r)
        | exception End_of_file -> fail "replica %d hung up mid-write" i)
      clients;
    Unix.sleepf 0.3
  done;

  (* Convergence: past the quiescent tail, the same bounded read at every
     replica returns the full total. *)
  Unix.sleepf 1.0;
  let expect = float_of_int !submitted in
  Array.iteri
    (fun i fd ->
      match
        rpc fd
          (Client.Query
             { key = "x"; conit = "c"; bounds = Tact_core.Bounds.make ~st:0.4 () })
      with
      | Client.Value v ->
        let got = Value.to_float v in
        if Float.abs (got -. expect) > 1e-9 then
          fail "replica %d settled at %g, want %g" i got expect
      | r -> fail "query at replica %d failed: %s" i (Client.describe_response r)
      | exception End_of_file -> fail "replica %d hung up mid-query" i)
    clients;

  (* Clean accounting straight from the daemons. *)
  Array.iteri
    (fun i fd ->
      match rpc fd Client.Status with
      | Client.Status_r st ->
        if st.Client.c_malformed <> 0 then
          fail "replica %d saw %d malformed frames" i st.Client.c_malformed;
        if not st.Client.c_up then fail "replica %d reports down" i
      | r -> fail "status at replica %d failed: %s" i (Client.describe_response r))
    clients;
  Array.iter Unix.close clients;

  (* Drain: SIGTERM each process; all must exit 0. *)
  Array.iter (fun pid -> Unix.kill pid Sys.sigterm) pids;
  Array.iteri
    (fun i pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED c -> fail "replica %d exited %d after SIGTERM" i c
      | _, Unix.WSIGNALED s -> fail "replica %d killed by signal %d" i s
      | _, Unix.WSTOPPED _ -> fail "replica %d stopped" i)
    pids;

  (* The final status line each daemon printed must carry clean counters. *)
  Array.iteri
    (fun i _ ->
      let path = Filename.concat log_dir (Printf.sprintf "replica-%d.stdout" i) in
      let ic = open_in path in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      match Json.parse line with
      | Error e -> fail "replica %d final status is not JSON (%s): %s" i e line
      | Ok _ ->
        List.iter
          (fun frag ->
            let ok =
              let fl = String.length frag and ll = String.length line in
              let rec scan o = o + fl <= ll && (String.sub line o fl = frag || scan (o + 1)) in
              scan 0
            in
            if not ok then fail "replica %d final status lacks %s: %s" i frag line)
          [ "\"malformed\":0"; "\"parked_drops\":0"; "\"up\":true" ])
    pids;
  if traced then check_trace_logs ();
  Printf.printf "serve-smoke ok: %d writes, converged at %g, clean drain\n" !submitted
    expect
