(* A fleet of replica processes on loopback, forked by the benchmark.

   Each child mounts one replica through Serve.create with the daemon's own
   configuration (Config.default) and an optional injected one-way delay,
   then runs the serve loop.  The parent talks to each child over a pair of
   pipes: one command byte in, one stats line out.  Commands:

     'S'  reply with the child's counters (see [stats_line]) and restart its
          window-local samples
     'T'  turn on the tracing shims: a timed wrapper around
          Replica.deliver_wire and a 50 ms sampler of the write log

   On every exit path the parent SIGTERM-drains and reaps every child
   ([teardown], also run at exit and on SIGINT/SIGTERM), so back-to-back runs
   leak no process or port.  A child whose parent disappears (its command
   pipe reads EOF) drains itself. *)

open Tact_transport
module Replica = Tact_replica.Replica
module Config = Tact_replica.Config
module Wlog = Tact_store.Wlog

type child = {
  id : int;
  pid : int;
  cmd : Unix.file_descr;
  replies : in_channel;
  mutable alive : bool;
}

type t = { children : child array; client_ports : int array }

type reading = (string, [ `Num of float | `Hist of Hist.t ]) Hashtbl.t
type stats = reading array

let live : child list ref = ref []

(* Distinct free loopback ports: hold them all bound while choosing. *)
let free_ports k =
  let socks =
    List.init k (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        fd)
  in
  let ports =
    List.map
      (fun fd ->
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false)
      socks
  in
  List.iter Unix.close socks;
  Array.of_list ports

let loopback p = Unix.ADDR_INET (Unix.inet_addr_loopback, p)

(* ------------------------------------------------------------------ *)
(* Child side                                                          *)

type shims = {
  deliver_us : Hist.t;
  mutable tent_max : int;
  mutable retained_max : int;
  mutable pending_max : int;
}

let tentative log = Wlog.num_known log - Wlog.retained log

let stats_line s shims =
  let r = Serve.replica s in
  let log = Replica.log r in
  let st = Replica.stats r in
  let tcp = Tcp.stats (Serve.tcp s) in
  let f = Faulty.stats (Serve.faulty s) in
  let gc = Gc.quick_stat () in
  let fields =
    [
      ("cpu", Proc.cpu_s ()); ("rss_mb", Proc.peak_rss_mb ());
      ("peers_up", float_of_int (Serve.peers_up s));
      ("sent_frames", float_of_int tcp.Tcp.sent_frames);
      ("sent_bytes", float_of_int tcp.Tcp.sent_bytes);
      ("parked_frames", float_of_int tcp.Tcp.parked_frames);
      ("parked_drops", float_of_int tcp.Tcp.parked_drops);
      ("reconnects", float_of_int tcp.Tcp.reconnects);
      ("poisoned", float_of_int tcp.Tcp.poisoned);
      ("delayed", float_of_int f.Faulty.f_delayed);
      ("pushes_budget", float_of_int st.Replica.pushes_budget);
      ("pulls_ne", float_of_int st.Replica.pulls_ne);
      ("pulls_oe", float_of_int st.Replica.pulls_oe);
      ("pulls_st", float_of_int st.Replica.pulls_st);
      ("gossips", float_of_int st.Replica.gossips);
      ("blocked", float_of_int st.Replica.blocked_accesses);
      ("snapshots", float_of_int st.Replica.snapshots_installed);
      ("timeouts", float_of_int st.Replica.timeouts);
      ("batches", float_of_int st.Replica.batches);
      ("malformed", float_of_int st.Replica.malformed_frames);
      ("records", float_of_int (List.length (Replica.records r)));
      ("rollbacks", float_of_int (Wlog.rollbacks log));
      ("tent_max", float_of_int shims.tent_max);
      ("retained_max", float_of_int shims.retained_max);
      ("pending_max", float_of_int shims.pending_max);
      ("minor_words", gc.Gc.minor_words);
      ("major_collections", float_of_int gc.Gc.major_collections);
      ("top_heap_mb", float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
    ]
  in
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) fields)
  ^ " deliver_us=" ^ Hist.to_string shims.deliver_us ^ "\n"

let child_main ~id ~n ~peer_ports ~client_port ~nominal_delay ~request_timeout ~seed ~cmd
    ~reply =
  let s =
    Serve.create ~request_timeout ~nominal_delay ~id ~n ~peer_addrs:(Array.map loopback peer_ports)
      ~client_addr:(loopback client_port) ~config:Config.default ~seed ()
  in
  let loop = Serve.loop s and r = Serve.replica s in
  let shims =
    { deliver_us = Hist.create (); tent_max = 0; retained_max = 0; pending_max = 0 }
  in
  let enable_tracing () =
    Tcp.set_handler (Serve.tcp s) (fun ~src payload ->
        let t0 = Proc.now () in
        Replica.deliver_wire r ~src payload;
        Hist.add shims.deliver_us ((Proc.now () -. t0) *. 1e6));
    Loop.every loop ~tag:"bench-sample" ~period:0.05 (fun () ->
        let log = Replica.log r in
        shims.tent_max <- max shims.tent_max (tentative log);
        shims.retained_max <- max shims.retained_max (Wlog.retained log);
        shims.pending_max <- max shims.pending_max (Replica.pending_count r);
        true)
  in
  let drain _ = Loop.defer loop (fun () -> Serve.request_stop s) in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
  let byte = Bytes.create 1 in
  Loop.on_readable loop cmd (fun () ->
      match Unix.read cmd byte 0 1 with
      | 1 when Bytes.get byte 0 = 'S' ->
        let line = stats_line s shims in
        ignore (Unix.write_substring reply line 0 (String.length line));
        Hist.reset shims.deliver_us;
        shims.tent_max <- 0;
        shims.retained_max <- 0;
        shims.pending_max <- 0
      | 1 when Bytes.get byte 0 = 'T' -> enable_tracing ()
      | 1 -> ()
      | _ ->
        Loop.forget loop cmd;
        Serve.request_stop s
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ());
  Serve.start s;
  Serve.run s

(* ------------------------------------------------------------------ *)
(* Parent side                                                         *)

let reap ?(grace = 10.0) c =
  if c.alive then begin
    (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Proc.now () +. grace in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] c.pid with
      | 0, _ ->
        if Proc.now () > deadline then begin
          (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] c.pid)
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    c.alive <- false;
    (try Unix.close c.cmd with Unix.Unix_error _ -> ());
    (try close_in c.replies with Sys_error _ -> ());
    live := List.filter (fun c' -> c' != c) !live
  end

let teardown t =
  (* Signal every child first so they drain in parallel, then reap. *)
  Array.iter
    (fun c -> if c.alive then try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.children;
  Array.iter (fun c -> reap c) t.children

let teardown_all () = List.iter (fun c -> reap ~grace:2.0 c) !live

let () =
  at_exit teardown_all;
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)

let spawn ~n ~nominal_delay ~request_timeout ~seed =
  let ports = free_ports (2 * n) in
  let peer_ports = Array.sub ports 0 n and client_ports = Array.sub ports n n in
  let children =
    Array.init n (fun id ->
        let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
        let rep_r, rep_w = Unix.pipe ~cloexec:true () in
        flush_all ();
        match Unix.fork () with
        | 0 ->
          (* Drop the parent's view of earlier children and its handlers. *)
          List.iter (fun c -> Unix.close c.cmd; close_in_noerr c.replies) !live;
          live := [];
          Unix.close cmd_w;
          Unix.close rep_r;
          Unix.set_nonblock cmd_r;
          (try
             child_main ~id ~n ~peer_ports ~client_port:client_ports.(id) ~nominal_delay
               ~request_timeout               ~seed:(seed + id) ~cmd:cmd_r ~reply:rep_w
           with e -> Printf.eprintf "replica %d: %s\n%!" id (Printexc.to_string e));
          Unix._exit 0
        | pid ->
          Unix.close cmd_r;
          Unix.close rep_w;
          let c =
            { id; pid; cmd = cmd_w; replies = Unix.in_channel_of_descr rep_r; alive = true }
          in
          live := c :: !live;
          c)
  in
  { children; client_ports }

let size t = Array.length t.children

(* One stats reading from every child, as key -> value tables. *)
let stats t =
  Array.map
    (fun c ->
      ignore (Unix.write_substring c.cmd "S" 0 1);
      let line = input_line c.replies in
      let tbl = Hashtbl.create 40 in
      List.iter
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
            let k = String.sub kv 0 i and v = String.sub kv (i + 1) (String.length kv - i - 1) in
            if k = "deliver_us" then begin
              let h = Hist.create () in
              Hist.add_string h v;
              Hashtbl.replace tbl k (`Hist h)
            end
            else Hashtbl.replace tbl k (`Num (float_of_string v))
          | None -> ())
        (String.split_on_char ' ' line);
      tbl)
    t.children

let num tbl k =
  match Hashtbl.find_opt tbl k with Some (`Num v) -> v | _ -> invalid_arg ("Fleet.num " ^ k)

let hist tbl k =
  match Hashtbl.find_opt tbl k with Some (`Hist h) -> h | _ -> invalid_arg ("Fleet.hist " ^ k)

let enable_tracing t = Array.iter (fun c -> ignore (Unix.write_substring c.cmd "T" 0 1)) t.children

(* Wait until every replica reports all its peers up. *)
let await_mesh t ~timeout =
  let deadline = Proc.now () +. timeout in
  let n = size t in
  let rec go () =
    let up = Array.for_all (fun tbl -> int_of_float (num tbl "peers_up") = n - 1) (stats t) in
    if up then true
    else if Proc.now () > deadline then false
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()
