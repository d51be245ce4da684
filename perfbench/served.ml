(* The two served workloads: a fleet of three replica processes on loopback
   (Fleet), driven by an open-loop generator in this process.

   served-wan: every replica delays each outgoing peer message by 20 ms in
   the Faulty decorator (an emulated WAN).  Two connections, to replicas 0
   and 1, each carry weak writes and strict-NE reads (ne = 0): every strict
   read costs one pull round over the injected delay, so its latency is set
   by protocol round trips rather than by the host.  Both replicas that take
   writes also issue strict reads, which keeps their writes committing.

   served-weak: the same fleet without injected delay, carrying weak writes
   and weak reads only — the daemon's default under weak traffic.  Nothing
   gossips or pulls, so nothing commits: the tentative suffix (and every
   access record, which copies it) grows for the whole run.

   The generator is one thread with one connection per replica it loads.
   Arrivals are Poisson from the seed, and each latency is timed from the
   request's due time, so a stall in the generator or the fleet counts
   against every request it delays.  The client protocol carries no request
   id, so responses are attributed by class: writes never park and are
   matched to Outcome in order, and reads of one bound are matched to Value
   in order.  A response that cannot be attributed counts as unmatched and
   failed. *)

open Tact_store
open Tact_transport
module Bounds = Tact_core.Bounds

type mix = Wan | Weak

let name = function Wan -> "served-wan" | Weak -> "served-weak"
let n = 3
let loaded = 2 (* connections, to replicas 0 and 1 *)
(* Accesses per second over all connections.  On served-weak the memory of
   a run grows with the square of the accesses per replica (every access
   record copies the growing suffix), so its rate is sized for about 5000
   accesses per replica in a 15 s window. *)
let rate = function Wan -> 400.0 | Weak -> 700.0
let nominal_delay = function Wan -> 0.02 | Weak -> 0.0
let warmup_s = 0.5
let request_timeout = 10.0
let drain_limit = 12.0

type kind = W | R
type arrival = { due : float; conn : int; kind : kind; aid : int }

(* Both connections' Poisson streams over [0, duration), merged by due time.
   Half the accesses are writes. *)
let schedule ~mix ~rng ~duration ~first_id =
  let per_conn = rate mix /. float_of_int loaded in
  let all = ref [] in
  for conn = 0 to loaded - 1 do
    let rng = Tact_util.Prng.split rng in
    let t = ref (Tact_util.Prng.exponential rng ~mean:(1.0 /. per_conn)) in
    while !t < duration do
      all := (!t, conn, if Tact_util.Prng.bool rng then W else R) :: !all;
      t := !t +. Tact_util.Prng.exponential rng ~mean:(1.0 /. per_conn)
    done
  done;
  List.sort compare !all
  |> List.mapi (fun i (due, conn, kind) -> { due; conn; kind; aid = first_id + i })
  |> Array.of_list

let frame req =
  let payload = Client.request_to_string req in
  Transport.encode_frame_header ~len:(String.length payload) ^ payload

let write_req =
  frame (Client.Submit { conit = "c"; nweight = 1.0; oweight = 1.0; op = Op.Add ("x", 1.0) })

let read_bounds = function Wan -> Bounds.make ~ne:0.0 () | Weak -> Bounds.weak
let read_req mix = frame (Client.Query { key = "x"; conit = "c"; bounds = read_bounds mix })

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  out : Buffer.t;
  pend_w : (int * float) Queue.t;  (* access id, absolute due time *)
  pend_r : (int * float) Queue.t;
}

let connect port =
  let deadline = Proc.now () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Fleet.loopback port) with
    | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.set_nonblock fd;
      { fd; inbuf = Bytes.create 65536; inlen = 0; out = Buffer.create 4096;
        pend_w = Queue.create (); pend_r = Queue.create () }
    | exception (Unix.Unix_error _ as e) ->
      Unix.close fd;
      if Proc.now () > deadline then raise e;
      Unix.sleepf 0.01;
      go ()
  in
  go ()

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let flush c =
  let len = Buffer.length c.out in
  if len > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) 0 len with
    | w ->
      let rest = Buffer.sub c.out w (len - w) in
      Buffer.clear c.out;
      Buffer.add_string c.out rest
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* Decoded responses waiting in the receive buffer. *)
let take_responses c =
  let out = ref [] in
  let rec go off =
    match Transport.decode_frame_header c.inbuf ~off ~avail:(c.inlen - off) with
    | Ok (Some len) when c.inlen - off >= Transport.frame_header_size + len ->
      let payload = Bytes.sub_string c.inbuf (off + Transport.frame_header_size) len in
      out := Client.decode_response payload :: !out;
      go (off + Transport.frame_header_size + len)
    | Ok _ -> off
    | Error e -> failwith ("bad response frame: " ^ Transport.error_to_string e)
  in
  let used = go 0 in
  Bytes.blit c.inbuf used c.inbuf 0 (c.inlen - used);
  c.inlen <- c.inlen - used;
  List.rev !out

let read_into c =
  if c.inlen = Bytes.length c.inbuf then begin
    let fresh = Bytes.create (2 * Bytes.length c.inbuf) in
    Bytes.blit c.inbuf 0 fresh 0 c.inlen;
    c.inbuf <- fresh
  end;
  match Unix.read c.fd c.inbuf c.inlen (Bytes.length c.inbuf - c.inlen) with
  | 0 -> failwith "replica closed a client connection"
  | k -> c.inlen <- c.inlen + k
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* ------------------------------------------------------------------ *)
(* The open-loop generator                                             *)

type phase = {
  lat_w : Hist.t;  (* wall ms from due to response *)
  lat_r : Hist.t;
  late : Hist.t;  (* wall ms from due to send *)
  spans : Spans.t option;
  mutable attempted : int;
  mutable answered : int;
  mutable acked : int;  (* writes answered Applied *)
  mutable errs : int;
  mutable unmatched : int;
}

let new_phase ~traced =
  { lat_w = Hist.create (); lat_r = Hist.create (); late = Hist.create ();
    spans = (if traced then Some (Spans.create ()) else None);
    attempted = 0; answered = 0; acked = 0; errs = 0; unmatched = 0 }

let on_response p (resp : (Client.response, Transport.error) result) c =
  p.answered <- p.answered + 1;
  let now = Proc.now () in
  let finish q h name =
    match Queue.take_opt q with
    | Some (aid, due) ->
      Hist.add h ((now -. due) *. 1000.0);
      Option.iter (fun s -> Spans.add s ~id:aid ~name ~clock:"wall" ~start:due ~stop:now) p.spans
    | None -> p.unmatched <- p.unmatched + 1
  in
  match resp with
  | Ok (Client.Outcome (Op.Applied _)) ->
    p.acked <- p.acked + 1;
    finish c.pend_w p.lat_w "write"
  | Ok (Client.Value _) -> finish c.pend_r p.lat_r "read"
  | Ok (Client.Err _) ->
    p.errs <- p.errs + 1;
    p.unmatched <- p.unmatched + 1
  | Ok (Client.Outcome (Op.Conflict _) | Client.Status_r _) | Error _ ->
    p.unmatched <- p.unmatched + 1

(* Send every arrival when it falls due (relative to [t0]) and collect the
   responses; [tick] runs as the schedule passes each [ticks]th of
   [duration].  Returns once every access is answered or
   [drain_limit] after the last one was due. *)
let drive ?(ticks = 0) ?(tick = ignore) conns arrivals ~mix ~duration ~t0 p =
  let len = Array.length arrivals in
  let reqs = [| write_req; read_req mix |] in
  let idx = ref 0 and next_tick = ref 1 in
  let last_due = t0 +. duration in
  let finished () =
    !idx = len && (p.answered >= p.attempted || Proc.now () > last_due +. drain_limit)
  in
  while not (finished ()) do
    let now = Proc.now () in
    while !idx < len && t0 +. arrivals.(!idx).due <= now do
      let a = arrivals.(!idx) in
      let c = conns.(a.conn) in
      let due = t0 +. a.due in
      Buffer.add_string c.out reqs.(match a.kind with W -> 0 | R -> 1);
      Queue.add (a.aid, due) (match a.kind with W -> c.pend_w | R -> c.pend_r);
      Hist.add p.late ((now -. due) *. 1000.0);
      Option.iter
        (fun s -> Spans.add s ~id:a.aid ~name:"gen.send" ~clock:"wall" ~start:due ~stop:now)
        p.spans;
      p.attempted <- p.attempted + 1;
      incr idx
    done;
    Array.iter flush conns;
    while ticks > 0 && !next_tick <= ticks
          && now -. t0 >= duration *. float_of_int !next_tick /. float_of_int ticks do
      tick ();
      incr next_tick
    done;
    let timeout =
      if !idx < len then Float.max 0.0 (t0 +. arrivals.(!idx).due -. now)
      else 0.05
    in
    let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let wfds =
      Array.to_list conns |> List.filter (fun c -> Buffer.length c.out > 0)
      |> List.map (fun c -> c.fd)
    in
    let readable, _, _ =
      try Unix.select fds wfds [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun c ->
        if List.mem c.fd readable then begin
          read_into c;
          List.iter (fun r -> on_response p r c) (take_responses c)
        end)
      conns
  done;
  while ticks > 0 && !next_tick <= ticks do
    tick ();
    incr next_tick
  done

(* ------------------------------------------------------------------ *)
(* Set-up, window, checks                                              *)

type live = {
  fleet : Fleet.t;
  conns : conn array;
  window : arrival array;
  mutable acked_total : int;
}

(* Fork the fleet, wait for the full peer mesh, connect, generate the
   inputs and warm up: everything before the measured window. *)
let setup ~mix ~seed ~seconds =
  (* A port chosen free can be taken by another process before a replica
     binds it; such a fleet never forms its mesh, so try fresh ports once. *)
  let spawn () =
    let fleet = Fleet.spawn ~n ~nominal_delay:(nominal_delay mix) ~request_timeout ~seed in
    if Fleet.await_mesh fleet ~timeout:10.0 then Some fleet
    else begin
      Fleet.teardown fleet;
      None
    end
  in
  let fleet =
    match spawn () with
    | Some f -> f
    | None -> (
      match spawn () with Some f -> f | None -> failwith "replicas never formed a full mesh")
  in
  let conns = Array.init loaded (fun i -> connect fleet.Fleet.client_ports.(i)) in
  let rng = Tact_util.Prng.create ~seed in
  let warm = schedule ~mix ~rng:(Tact_util.Prng.split rng) ~duration:warmup_s ~first_id:0 in
  let window =
    schedule ~mix ~rng:(Tact_util.Prng.split rng) ~duration:seconds ~first_id:(Array.length warm)
  in
  let p = new_phase ~traced:false in
  drive conns warm ~mix ~duration:warmup_s ~t0:(Proc.now ()) p;
  if p.answered < p.attempted || p.unmatched > 0 then failwith "warm-up accesses went unanswered";
  { fleet; conns; window; acked_total = p.acked }

let teardown l =
  Array.iter close_conn l.conns;
  Fleet.teardown l.fleet

let sum stats k = Array.fold_left (fun a tbl -> a +. Fleet.num tbl k) 0.0 stats
let maxf stats k = Array.fold_left (fun a tbl -> Float.max a (Fleet.num tbl k)) 0.0 stats

type measured = {
  p : phase;
  s0 : Fleet.stats;
  s1 : Fleet.stats;
  readings : Fleet.stats list;
      (* traced only: readings at each twentieth of the window, then [s1];
         each carries the child's samples since the previous reading *)
  wall : float;
  gen_cpu : float;
}

let parts = 20

let window l ~mix ~seconds ~traced =
  let p = new_phase ~traced in
  if traced then Fleet.enable_tracing l.fleet;
  let s0 = Fleet.stats l.fleet in
  let cpu0 = Proc.cpu_s () and w0 = Proc.now () in
  let readings = ref [] in
  let tick () = readings := Fleet.stats l.fleet :: !readings in
  drive ~ticks:(if traced then parts else 0) ~tick l.conns l.window ~mix ~duration:seconds
    ~t0:(Proc.now ()) p;
  let s1 = Fleet.stats l.fleet in
  l.acked_total <- l.acked_total + p.acked;
  { p; s0; s1; readings = List.rev (s1 :: !readings); wall = Proc.now () -. w0;
    gen_cpu = Proc.cpu_s () -. cpu0 }

(* After the drain: a strict read at every replica returns the total of the
   acknowledged writes, and the transport accounting is clean. *)
let checks rep l m =
  Report.check rep (m.p.answered >= m.p.attempted && m.p.unmatched = 0)
    "window: %d accesses, %d unanswered, %d unmatched, %d errors" m.p.attempted
    (max 0 (m.p.attempted - m.p.answered)) m.p.unmatched m.p.errs;
  let strict = frame (Client.Query { key = "x"; conit = "c"; bounds = Bounds.make ~ne:0.0 () }) in
  Array.iteri
    (fun i port ->
      let c = connect port in
      Buffer.add_string c.out strict;
      let deadline = Proc.now () +. request_timeout in
      let got = ref None in
      while !got = None && Proc.now () < deadline do
        flush c;
        ignore (Unix.select [ c.fd ] [] [] 0.05);
        read_into c;
        match take_responses c with r :: _ -> got := Some r | [] -> ()
      done;
      close_conn c;
      let ok, shown =
        match !got with
        | Some (Ok (Client.Value v)) ->
          let x = Value.to_float v in
          (Float.equal x (float_of_int l.acked_total), Printf.sprintf "%g" x)
        | Some (Ok r) -> (false, Client.describe_response r)
        | Some (Error e) -> (false, Transport.error_to_string e)
        | None -> (false, "no answer")
      in
      Report.check rep ok "replica %d strict read %s = %d acked writes" i shown l.acked_total)
    l.fleet.Fleet.client_ports;
  List.iter
    (fun k -> Report.check rep (sum m.s1 k = 0.0) "%s = 0 at every replica" k)
    [ "malformed"; "parked_drops"; "poisoned" ]

(* Replica CPU over the whole window per access, as measured.  Unlike the
   simulator's it is not normalised by the reference (Calib): replica CPU is
   mostly kernel socket work, which the reference does not track — on
   served-wan normalising widened the run-to-run range from 10% to 22%.  Nor
   is it a median of parts: on served-weak the cost per access grows through
   the window, so the median part is the steepest, most noise-sensitive
   point of the curve. *)
let cpu_us_per_op m = (sum m.s1 "cpu" -. sum m.s0 "cpu") *. 1e6 /. float_of_int (max 1 m.p.attempted)

let layer_metrics rep ~mix m =
  let d k = sum m.s1 k -. sum m.s0 k in
  let po x = x /. float_of_int (max 1 m.p.attempted) in
  Report.info "histogram %-20s %s (ms)" "traced gen.late" (Hist.summary m.p.late);
  Report.add rep "gen.late_p99_ms" "ms" (Hist.quantile m.p.late 0.99);
  Report.add rep "gen.unmatched" "count" (float_of_int m.p.unmatched);
  Report.add rep "gen.cpu_us_per_op" "us/op" (po (m.gen_cpu *. 1e6));
  let deliver = Hist.create () in
  List.iter
    (Array.iter (fun tbl -> Hist.merge_into deliver (Fleet.hist tbl "deliver_us")))
    m.readings;
  let peak k = List.fold_left (fun a s -> Float.max a (maxf s k)) 0.0 m.readings in
  Report.info "histogram %-20s %s (us)" "replica.deliver" (Hist.summary deliver);
  Report.add rep "replica.deliver_us_p50" "us" (Hist.quantile deliver 0.5);
  Report.add rep "replica.deliver_us_p99" "us" (Hist.quantile deliver 0.99);
  Report.add rep "replica.blocked_frac" "ratio" (po (d "blocked"));
  Report.add rep "replica.pending_max" "count" (peak "pending_max");
  Report.add rep "replica.timeouts" "count" (d "timeouts");
  Report.add rep "replica.records" "count" (sum m.s1 "records");
  Report.add rep "protocols.budget_pushes_per_op" "1/op" (po (d "pushes_budget"));
  Report.add rep "protocols.ne_pulls_per_op" "1/op" (po (d "pulls_ne"));
  Report.add rep "protocols.oe_pulls_per_op" "1/op" (po (d "pulls_oe"));
  Report.add rep "protocols.st_pulls_per_op" "1/op" (po (d "pulls_st"));
  Report.add rep "protocols.gossips_per_op" "1/op" (po (d "gossips"));
  Report.add rep "wlog.rollbacks_per_op" "1/op" (po (d "rollbacks"));
  Report.add rep "wlog.tentative_max" "count" (peak "tent_max");
  let first, second =
    List.partition (fun (i, _) -> i < parts / 2) (List.mapi (fun i s -> (i, maxf s "tent_max")) m.readings)
  in
  let top l = List.fold_left (fun a (_, v) -> Float.max a v) 0.0 l in
  Report.add rep "wlog.tentative_growth" "ratio" (top second /. Float.max 1.0 (top first));
  Report.add rep "wlog.retained_max" "count" (peak "retained_max");
  Report.add rep "wlog.snapshots_per_op" "1/op" (po (d "snapshots"));
  let batches = d "batches" in
  Report.add rep "codec.batches_per_op" "1/op" (po batches);
  Report.add rep "codec.bytes_per_batch" "B"
    (if batches > 0.0 then d "sent_bytes" /. batches else 0.0);
  (* The run's own writes, as the replicas would ship them. *)
  let writes =
    List.init (min 500 m.p.acked) (fun i ->
        Write.make ~id:{ Write.origin = i mod 2; seq = (i / 2) + 1 }
          ~accept_time:(float_of_int i /. rate mix) ~op:(Op.Add ("x", 1.0))
          ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ])
  in
  let enc, dec = Codec_probe.measure ~n writes in
  Report.add rep "codec.encode_ns_per_byte" "ns/B" enc;
  Report.add rep "codec.decode_ns_per_byte" "ns/B" dec;
  Report.add rep "transport.frames_per_op" "1/op" (po (d "sent_frames"));
  Report.add rep "transport.bytes_per_op" "B/op" (po (d "sent_bytes"));
  Report.add rep "transport.delayed_per_op" "1/op" (po (d "delayed"));
  Report.add rep "transport.busy_frac" "ratio" (d "cpu" /. m.wall);
  Report.add rep "transport.parked_frames" "count" (sum m.s1 "parked_frames");
  Report.add rep "transport.reconnects" "count" (sum m.s1 "reconnects");
  Report.add rep "transport.poisoned" "count" (sum m.s1 "poisoned");
  Report.add rep "gc.minor_words_per_op" "words/op" (po (d "minor_words"));
  Report.add rep "gc.major_collections" "count" (d "major_collections");
  Report.add rep "gc.top_heap_mb" "MB" (maxf m.s1 "top_heap_mb")

let run rep ~mix ~seed ~seconds ~trace =
  let timed () =
    let t0 = Proc.now () in
    let l = setup ~mix ~seed ~seconds in
    (Proc.now () -. t0, l)
  in
  let trials =
    List.init (Report.setups - 1) (fun _ ->
        let s, l = timed () in
        teardown l;
        s)
  in
  let last, l = timed () in
  Report.setup_time rep (trials @ [ last ]);
  let m =
    Fun.protect ~finally:(fun () -> teardown l) (fun () ->
        let m = window l ~mix ~seconds ~traced:false in
        checks rep l m;
        m)
  in
  Report.add rep "cpu_us_per_op" "us/op" (cpu_us_per_op m);
  Report.add rep "peak_rss_mb" "MB" (maxf m.s1 "rss_mb");
  (* Weak-access latency on loopback measures the host's scheduler, not the
     program: it is printed, not reported as a metric. *)
  Report.info "histogram %-20s %s (ms)" "write" (Hist.summary m.p.lat_w);
  (match mix with
  | Wan -> Report.latency rep ~prefix:"e2e.read" m.p.lat_r
  | Weak -> Report.info "histogram %-20s %s (ms)" "read" (Hist.summary m.p.lat_r));
  Report.info "histogram %-20s %s (ms)" "gen.late" (Hist.summary m.p.late);
  let failed = m.p.unmatched + max 0 (m.p.attempted - m.p.answered) in
  rep.Report.attempted <- m.p.attempted;
  rep.Report.failed <- failed;
  Report.add rep "e2e.failed_frac" "ratio" (float_of_int failed /. float_of_int (max 1 m.p.attempted));
  if trace then begin
    (* A fresh fleet, so the traced window starts where the untraced one did. *)
    let l = snd (timed ()) in
    Fun.protect ~finally:(fun () -> teardown l) (fun () ->
        let t = window l ~mix ~seconds ~traced:true in
        checks rep l t;
        layer_metrics rep ~mix t;
        Report.add rep "trace.overhead_cpu_us_per_op" "us/op" (cpu_us_per_op t -. cpu_us_per_op m);
        Option.iter
          (fun s -> Spans.write s ~path:(Printf.sprintf ".bench_out/spans-%s-%d.tsv" (name mix) seed))
          t.p.spans)
  end
