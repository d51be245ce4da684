(* The hardened TCP backend (topology, supervision, parking and byte-level
   hardening are described in tcp.mli).  Every socket call goes through
   {!Conn}; this file keeps the peer protocol: the hello, per-peer
   supervision of the dialed links, parking, probe acks and the stats. *)

open Tact_util
open Tact_store

let hello_magic = "TACTPEER"
let hello_size = String.length hello_magic + 8 (* + BE peer id *)

type stats = {
  mutable sent_frames : int;
  mutable sent_bytes : int;
  mutable recv_frames : int;
  mutable recv_bytes : int;
  mutable parked_frames : int;  (* currently parked *)
  mutable parked_drops : int;  (* frames dropped off the park cap *)
  mutable probes : int;
  mutable reconnects : int;  (* transitions into Up after the first *)
  mutable poisoned : int;  (* connections closed on protocol violations *)
}

(* An accepted (incoming) connection: hello, then frames. *)
type conn = { c_conn : Conn.t; mutable c_peer : int option (* set once the hello arrives *) }

(* A dialed (outgoing) connection slot for one peer. *)
type peer = {
  p_id : int;
  p_addr : Unix.sockaddr;
  mutable p_sup : Supervisor.state;
  mutable p_conn : Conn.t option;  (* the live dial; probe acks come back on it *)
  mutable p_ever_up : bool;
  p_parked : string Queue.t;  (* payloads parked while down *)
  mutable p_parked_bytes : int;  (* framed size of the parked payloads *)
}

type t = {
  self : int;
  n : int;
  loop : Loop.t;
  knobs : Tact_replica.Config.transport_knobs;
  sup_knobs : Supervisor.knobs;
  rng : Prng.t;
  peers : peer option array;  (* None at [self] *)
  mutable listener : Conn.t option;
  mutable conns : conn list;
  mutable handler : src:int -> string -> unit;
  mutable on_peer_up : int -> unit;
  on_event : (Event.t -> unit) option;
  stats : stats;
  park_cap_bytes : int;
  mutable closed : bool;
}

let self t = t.self
let size t = t.n
let set_handler t h = t.handler <- h
let set_on_peer_up t f = t.on_peer_up <- f

(* Connection events.  Sites test [observed] before they build the event,
   so an unobserved backend pays one branch and allocates nothing. *)
let observed t = Option.is_some t.on_event

let emit t kind =
  match t.on_event with
  | Some sink -> sink { Event.time = Loop.now t.loop; node = t.self; kind }
  | None -> ()

let stats t = t.stats
let peer_state t j =
  match t.peers.(j) with Some p -> p.p_sup | None -> Supervisor.initial

let peer_up t j = match t.peers.(j) with Some p -> Supervisor.is_up p.p_sup | None -> true
let peer_parked t j =
  match t.peers.(j) with Some p -> Supervisor.is_parked p.p_sup | None -> false

let create ?(park_cap_bytes = 64 * 1024 * 1024) ?on_event ~loop ~self ~addrs
    ~(knobs : Tact_replica.Config.transport_knobs) ~rng () =
  let n = Array.length addrs in
  if self < 0 || self >= n then invalid_arg "Tcp.create: self out of range";
  (* A write into a peer-reset socket must surface as EPIPE (handled like
     any other io error), not kill the process.  OCaml's Unix exposes no
     portable MSG_NOSIGNAL, so like every socket library we ignore the
     signal process-wide; hosts that installed their own handler keep it. *)
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | Sys.Signal_default | Sys.Signal_ignore -> ()
  | other -> Sys.set_signal Sys.sigpipe other
  | exception Invalid_argument _ -> ());
  {
    self;
    n;
    loop;
    knobs;
    sup_knobs = Supervisor.knobs_of_config knobs;
    rng;
    peers =
      Array.init n (fun j ->
          if j = self then None
          else
            Some
              {
                p_id = j;
                p_addr = addrs.(j);
                p_sup = Supervisor.initial;
                p_conn = None;
                p_ever_up = false;
                p_parked = Queue.create ();
                p_parked_bytes = 0;
              });
    listener = None;
    conns = [];
    handler = (fun ~src:_ _ -> ());
    on_peer_up = (fun _ -> ());
    on_event;
    stats =
      {
        sent_frames = 0;
        sent_bytes = 0;
        recv_frames = 0;
        recv_bytes = 0;
        parked_frames = 0;
        parked_drops = 0;
        probes = 0;
        reconnects = 0;
        poisoned = 0;
      };
    park_cap_bytes;
    closed = false;
  }

let hello_bytes self =
  let b = Bytes.create hello_size in
  Bytes.blit_string hello_magic 0 b 0 (String.length hello_magic);
  Bytes.set_int64_be b (String.length hello_magic) (Int64.of_int self);
  Bytes.unsafe_to_string b

(* A payload's size on the wire, length prefix included. *)
let framed payload = Transport.frame_header_size + String.length payload

(* ------------------------------------------------------------------ *)
(* Outgoing side: dial / flush / supervise                             *)

let hang_up (p : peer) =
  Option.iter Conn.close p.p_conn;
  p.p_conn <- None

let is_current (p : peer) c = match p.p_conn with Some c' -> c' == c | None -> false

let sup_event t (p : peer) ev =
  let was_up = Supervisor.is_up p.p_sup in
  let before = p.p_sup in
  let st, actions =
    Supervisor.step t.sup_knobs t.rng p.p_sup ev ~now:(Loop.now t.loop)
  in
  if observed t && (ev <> Supervisor.Tick || st <> before) then begin
    let cause =
      match ev with
      | Supervisor.Tick -> "tick"
      | Supervisor.Dial_ok -> "dial-ok"
      | Supervisor.Dial_failed -> "dial-failed"
      | Supervisor.Rx -> "rx"
      | Supervisor.Io_failed -> "io-failed"
    in
    let before = Supervisor.to_string before and after = Supervisor.to_string st in
    emit t (Event.Link { peer = p.p_id; before; cause; after })
  end;
  p.p_sup <- st;
  let now_up = Supervisor.is_up st in
  if now_up && not was_up then begin
    if p.p_ever_up then t.stats.reconnects <- t.stats.reconnects + 1;
    p.p_ever_up <- true
  end;
  actions

let rec run_actions t (p : peer) actions =
  List.iter
    (fun (a : Supervisor.action) ->
      match a with
      | Supervisor.Hang_up -> hang_up p
      | Supervisor.Dial -> dial t p
      | Supervisor.Send_probe ->
        t.stats.probes <- t.stats.probes + 1;
        enqueue t p ""
      | Supervisor.Resync ->
        (* Flush everything parked while the link was down, then let the
           protocol heal the gap. *)
        flush_parked t p;
        t.on_peer_up p.p_id)
    actions

(* A dead socket: hang up first, tell the supervisor second, so it always
   reasons about a world where the dead connection is already gone. *)
and link_failed t (p : peer) ev =
  hang_up p;
  run_actions t p (sup_event t p ev)

and dial t (p : peer) =
  hang_up p;
  match Conn.connect t.loop p.p_addr ~on_connect:(dial_complete t p) with
  | None -> run_actions t p (sup_event t p Supervisor.Dial_failed)
  | Some c ->
    p.p_conn <- Some c;
    Conn.on_readable c (fun () -> read_dialed t p c)

and dial_complete t (p : peer) c result =
  if is_current p c then
    match result with
    | Error _ -> link_failed t p Supervisor.Dial_failed
    | Ok () ->
      (* Connected: say hello, then hand the socket to the flusher (a stale
         wake-up while already up only flushes). *)
      if not (Supervisor.is_up p.p_sup) then begin
        Conn.add_raw c (hello_bytes t.self);
        run_actions t p (sup_event t p Supervisor.Dial_ok)
      end;
      flush_out t p

and enqueue t (p : peer) payload =
  match p.p_conn with
  | Some c when Supervisor.is_up p.p_sup ->
    if observed t then emit t (Event.Enqueue { peer = p.p_id; bytes = framed payload });
    Conn.add_frame c payload;
    flush_out t p
  | Some _ | None ->
    if observed t then emit t (Event.Park { peer = p.p_id; bytes = framed payload });
    park t p payload

and park t (p : peer) payload =
  (* Bounded: beyond the cap the oldest parked frames are dropped (and
     counted) — the reconnect resync recovers their content anyway. *)
  Queue.push payload p.p_parked;
  p.p_parked_bytes <- p.p_parked_bytes + framed payload;
  t.stats.parked_frames <- t.stats.parked_frames + 1;
  while p.p_parked_bytes > t.park_cap_bytes && not (Queue.is_empty p.p_parked) do
    let dropped = Queue.pop p.p_parked in
    p.p_parked_bytes <- p.p_parked_bytes - framed dropped;
    t.stats.parked_frames <- t.stats.parked_frames - 1;
    t.stats.parked_drops <- t.stats.parked_drops + 1
  done

and flush_parked t (p : peer) =
  Option.iter
    (fun c ->
      while not (Queue.is_empty p.p_parked) do
        let payload = Queue.pop p.p_parked in
        p.p_parked_bytes <- p.p_parked_bytes - framed payload;
        t.stats.parked_frames <- t.stats.parked_frames - 1;
        Conn.add_frame c payload
      done;
      flush_out t p)
    p.p_conn

and flush_out t (p : peer) =
  match p.p_conn with
  | None -> ()
  | Some c -> (
    match Conn.flush c ~resume:(fun () -> flush_out t p) with
    | Ok written -> t.stats.sent_bytes <- t.stats.sent_bytes + written
    | Error e ->
      if observed t then
        emit t (Event.Write_failed { peer = p.p_id; error = Unix.error_message e });
      link_failed t p Supervisor.Io_failed)

(* Probe acks (empty frames) coming back on the dialed connection are the
   half-open detector's food; anything else on this direction is a protocol
   violation and poisons the connection. *)
and read_dialed t (p : peer) c =
  if is_current p c then
    match Conn.read c with
    | Ok false -> ()
    | Ok true -> (
      (* Only empty frames are legal here, so a frame limit of 0 refuses any
         other length prefix as soon as it lands. *)
      match Conn.frames c ~max_frame:0 ignore with
      | Ok () -> run_actions t p (sup_event t p Supervisor.Rx)
      | Error _ ->
        t.stats.poisoned <- t.stats.poisoned + 1;
        link_failed t p Supervisor.Io_failed)
    | Error _ -> link_failed t p Supervisor.Io_failed

(* ------------------------------------------------------------------ *)
(* Incoming side: accept / hello / frames                              *)

let drop_conn t (c : conn) =
  if observed t then emit t (Event.Dropped c.c_peer);
  Conn.close c.c_conn;
  t.conns <- List.filter (fun c' -> c' != c) t.conns

let poison_conn t (c : conn) =
  t.stats.poisoned <- t.stats.poisoned + 1;
  drop_conn t c

(* Ack a probe: an empty frame back over our dialed connection to the
   prober (never echoed from the dialed side, so probes cannot ping-pong). *)
let ack_probe t ~src =
  if src >= 0 && src < t.n && src <> t.self then
    match t.peers.(src) with
    | Some p when Supervisor.is_up p.p_sup ->
      if observed t then emit t (Event.Ack src);
      Option.iter (fun c -> Conn.add_frame c "") p.p_conn;
      flush_out t p
    | Some _ | None -> ()

(* One frame from the hello-authenticated peer [src]. *)
let deliver t src payload =
  let len = String.length payload in
  t.stats.recv_frames <- t.stats.recv_frames + 1;
  t.stats.recv_bytes <- t.stats.recv_bytes + Transport.frame_header_size + len;
  if observed t then emit t (Event.Recv { peer = src; bytes = len });
  (match t.peers.(src) with
  | Some p -> run_actions t p (sup_event t p Supervisor.Rx)
  | None -> ());
  if len = 0 then ack_probe t ~src else t.handler ~src payload

(* The peer id a hello names, if it names another replica of this system. *)
let hello_peer t hello =
  if String.starts_with ~prefix:hello_magic hello then
    let id = Int64.to_int (String.get_int64_be hello (String.length hello_magic)) in
    if id < 0 || id >= t.n || id = t.self then None else Some id
  else None

let rec conn_consume t (c : conn) =
  match c.c_peer with
  | Some src -> (
    match Conn.frames c.c_conn ~max_frame:t.knobs.max_frame (deliver t src) with
    | Ok () -> ()
    | Error _ ->
      (* Oversized or corrupt length prefix: there is no way to
         resynchronise a stream after a bad prefix — poison the
         connection (the peer's supervisor will redial). *)
      poison_conn t c)
  | None -> (
    match Conn.take c.c_conn hello_size with
    | None -> ()
    | Some hello -> (
      match hello_peer t hello with
      | None -> poison_conn t c
      | Some id ->
        if observed t then emit t (Event.Hello id);
        c.c_peer <- Some id;
        (* Traffic from the peer is host-liveness evidence: it refreshes an
           Up link's half-open clock and un-parks an exhausted one (the
           supervisor absorbs it in every other state). *)
        (match t.peers.(id) with
        | Some p -> run_actions t p (sup_event t p Supervisor.Rx)
        | None -> ());
        conn_consume t c))

let conn_read t (c : conn) =
  match Conn.read c.c_conn with
  | Ok true -> conn_consume t c
  | Ok false -> ()
  | Error _ -> drop_conn t c

let accept_conn t conn =
  let c = { c_conn = conn; c_peer = None } in
  t.conns <- c :: t.conns;
  Conn.on_readable conn (fun () -> conn_read t c)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let supervise_period (k : Tact_replica.Config.transport_knobs) =
  Float.max 0.005 (Float.min 0.05 (k.backoff_base /. 2.0))

let listen t ~addr =
  if t.closed then invalid_arg "Tcp.listen: closed";
  match t.listener with
  | Some _ -> ()
  | None ->
    t.listener <-
      Some (Conn.listen t.loop addr ~backlog:t.knobs.listen_backlog (accept_conn t));
    (* The supervision heartbeat: drives dials, backoff expiry, connect
       deadlines and half-open probing for every peer. *)
    Loop.every t.loop ~tag:"supervise" ~period:(supervise_period t.knobs)
      (fun () ->
        if not t.closed then
          Array.iter
            (function
              | Some p -> run_actions t p (sup_event t p Supervisor.Tick)
              | None -> ())
            t.peers;
        not t.closed)

let send t ~dst payload =
  if t.closed then Error (Transport.Closed "transport closed")
  else if dst < 0 || dst >= t.n || dst = t.self then
    Error (Transport.Unreachable (Printf.sprintf "no such peer %d" dst))
  else if String.length payload > t.knobs.max_frame then
    Error
      (Transport.Too_large
         { limit = t.knobs.max_frame; got = String.length payload })
  else
    match t.peers.(dst) with
    | None -> Error (Transport.Unreachable "self")
    | Some p ->
      t.stats.sent_frames <- t.stats.sent_frames + 1;
      enqueue t p payload;
      Ok ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    Option.iter Conn.close t.listener;
    List.iter (fun c -> Conn.close c.c_conn) t.conns;
    t.conns <- [];
    Array.iter (function Some p -> hang_up p | None -> ()) t.peers
  end
