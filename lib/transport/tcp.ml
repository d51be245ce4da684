(* The hardened TCP/Unix-socket backend: the production instance of the
   TRANSPORT seam.

   Topology: every replica dials every peer and accepts from every peer.
   The connection I dial to X carries my frames to X (and X's probe acks
   back); X's frames to me arrive on the connection X dialed here.  Each
   dialed connection is driven by a pure per-peer {!Supervisor} — connect
   deadlines, bounded retries with decorrelated-jitter backoff, half-open
   probing — and every transition into [Up] triggers a protocol resync
   (the [on_peer_up] hook), so missed traffic heals via delta or snapshot
   ({!Tact_store.Batch.plan}) no matter how long the link was down.

   Graceful degradation: while a peer is down or parked, frames queued for
   it are parked in a bounded buffer (oldest dropped beyond the cap, and
   counted) — the replica keeps serving within its declared bounds; the
   protocol's own retry machinery plus reconnect-resync recover whatever
   parking lost.

   Hardening at the byte level: 4-byte length-prefix framing with a
   [max_frame] bound checked before allocation; a peer that sends an
   oversized or unparseable prefix poisons only its own connection (closed
   and counted, then re-accepted when it redials).  A hello exchange
   authenticates the peer id carried by every delivery. *)

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
type conn = {
  c_fd : Unix.file_descr;
  c_in : Inbuf.t;
  mutable c_peer : int option;  (* set once the hello arrives *)
}

(* A dialed (outgoing) connection slot for one peer. *)
type peer = {
  p_id : int;
  p_addr : Unix.sockaddr;
  mutable p_sup : Supervisor.state;
  mutable p_fd : Unix.file_descr option;
  mutable p_ever_up : bool;
  p_out : Outbuf.t;  (* bytes accepted for the live connection *)
  p_parked : string Queue.t;  (* whole frames parked while down *)
  mutable p_parked_bytes : int;
  p_in : Inbuf.t;  (* probe acks arriving on the dialed conn *)
}

type t = {
  self : int;
  n : int;
  loop : Loop.t;
  knobs : Tact_replica.Config.transport_knobs;
  sup_knobs : Supervisor.knobs;
  rng : Prng.t;
  peers : peer option array;  (* None at [self] *)
  mutable listen_fd : Unix.file_descr option;
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
                p_fd = None;
                p_ever_up = false;
                p_out = Outbuf.create 4096;
                p_parked = Queue.create ();
                p_parked_bytes = 0;
                p_in = Inbuf.create 4096;
              });
    listen_fd = None;
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

(* ------------------------------------------------------------------ *)
(* Low-level socket helpers: every call total, errors as values.       *)

let close_fd_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let hello_bytes self =
  let b = Bytes.create hello_size in
  Bytes.blit_string hello_magic 0 b 0 (String.length hello_magic);
  Bytes.set_int64_be b (String.length hello_magic) (Int64.of_int self);
  Bytes.unsafe_to_string b

let frame_of payload =
  Transport.encode_frame_header ~len:(String.length payload) ^ payload

(* ------------------------------------------------------------------ *)
(* Outgoing side: dial / flush / supervise                             *)

let hang_up t (p : peer) =
  (match p.p_fd with
  | Some fd ->
    Loop.forget t.loop fd;
    close_fd_quietly fd
  | None -> ());
  p.p_fd <- None;
  Inbuf.clear p.p_in;
  Outbuf.clear p.p_out

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
      | Supervisor.Hang_up -> hang_up t p
      | Supervisor.Dial -> dial t p
      | Supervisor.Send_probe ->
        t.stats.probes <- t.stats.probes + 1;
        enqueue t p (frame_of "")
      | Supervisor.Resync ->
        (* Flush everything parked while the link was down, then let the
           protocol heal the gap. *)
        flush_parked t p;
        t.on_peer_up p.p_id)
    actions

and dial t (p : peer) =
  hang_up t p;
  match
    let fd = Unix.socket (Unix.domain_of_sockaddr p.p_addr) Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    (fd, try Unix.connect fd p.p_addr; `Done with
      | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> `Pending
      | Unix.Unix_error _ -> `Failed)
  with
  | exception Unix.Unix_error _ -> run_actions t p (sup_event t p Supervisor.Dial_failed)
  | fd, `Failed ->
    close_fd_quietly fd;
    run_actions t p (sup_event t p Supervisor.Dial_failed)
  | fd, (`Done | `Pending) ->
    p.p_fd <- Some fd;
    (* Readiness-to-write completes (or fails) the connect. *)
    Loop.on_writable t.loop fd (fun () -> dial_complete t p fd);
    Loop.on_readable t.loop fd (fun () -> read_dialed t p fd)

and dial_complete t (p : peer) fd =
  if p.p_fd = Some fd then begin
    match Unix.getsockopt_error fd with
    | Some _ ->
      (* Close the refused socket before telling the supervisor: reading
         SO_ERROR cleared it, so a later writable wakeup on a still-open fd
         would masquerade as a successful connect. *)
      hang_up t p;
      run_actions t p (sup_event t p Supervisor.Dial_failed)
    | None -> (
      match p.p_sup with
      | Supervisor.Dialing _ | Supervisor.Down _ | Supervisor.Parked _ ->
        (* Connected: say hello, then hand the socket to the flusher. *)
        Outbuf.add_string p.p_out (hello_bytes t.self);
        Loop.clear_writable t.loop fd;
        run_actions t p (sup_event t p Supervisor.Dial_ok);
        flush_out t p
      | Supervisor.Up _ ->
        (* Already up (stale wakeup): just flush. *)
        flush_out t p)
  end

and enqueue t (p : peer) frame =
  if Supervisor.is_up p.p_sup && p.p_fd <> None then begin
    if observed t then
      emit t (Event.Enqueue { peer = p.p_id; bytes = String.length frame });
    Outbuf.add_string p.p_out frame;
    flush_out t p
  end
  else begin
    if observed t then
      emit t (Event.Park { peer = p.p_id; bytes = String.length frame });
    park t p frame
  end

and park t (p : peer) frame =
  (* Bounded: beyond the cap the oldest parked frames are dropped (and
     counted) — the reconnect resync recovers their content anyway. *)
  Queue.push frame p.p_parked;
  p.p_parked_bytes <- p.p_parked_bytes + String.length frame;
  t.stats.parked_frames <- t.stats.parked_frames + 1;
  while p.p_parked_bytes > t.park_cap_bytes && not (Queue.is_empty p.p_parked) do
    let dropped = Queue.pop p.p_parked in
    p.p_parked_bytes <- p.p_parked_bytes - String.length dropped;
    t.stats.parked_frames <- t.stats.parked_frames - 1;
    t.stats.parked_drops <- t.stats.parked_drops + 1
  done

and flush_parked t (p : peer) =
  while not (Queue.is_empty p.p_parked) do
    let frame = Queue.pop p.p_parked in
    p.p_parked_bytes <- p.p_parked_bytes - String.length frame;
    t.stats.parked_frames <- t.stats.parked_frames - 1;
    Outbuf.add_string p.p_out frame
  done;
  flush_out t p

and flush_out t (p : peer) =
  match p.p_fd with
  | None -> ()
  | Some fd ->
    if Outbuf.is_empty p.p_out then Loop.clear_writable t.loop fd
    else begin
      match Outbuf.write p.p_out fd with
      | written ->
        t.stats.sent_bytes <- t.stats.sent_bytes + written;
        if Outbuf.is_empty p.p_out then Loop.clear_writable t.loop fd
        else Loop.on_writable t.loop fd (fun () -> flush_out t p)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Loop.on_writable t.loop fd (fun () -> flush_out t p)
      | exception Unix.Unix_error (e, _, _) ->
        if observed t then
          emit t
            (Event.Write_failed { peer = p.p_id; error = Unix.error_message e });
        hang_up t p;
        run_actions t p (sup_event t p Supervisor.Io_failed)
    end

(* Probe acks (empty frames) coming back on the dialed connection are the
   half-open detector's food; anything else on this direction is a protocol
   violation and poisons the connection. *)
and read_dialed t (p : peer) fd =
  if p.p_fd = Some fd then begin
    match Inbuf.read p.p_in fd with
    | 0 ->
      hang_up t p;
      run_actions t p (sup_event t p Supervisor.Io_failed)
    | _ -> (
      (* Consume whole frames; only empty ones are legal here, so a frame
         limit of 0 refuses any other length prefix as soon as it lands. *)
      let rec consume () =
        match Inbuf.next_frame p.p_in ~max_frame:0 with
        | Ok None -> `Keep
        | Ok (Some _) -> consume ()
        | Error _ -> `Poison
      in
      match consume () with
      | `Keep -> run_actions t p (sup_event t p Supervisor.Rx)
      | `Poison ->
        t.stats.poisoned <- t.stats.poisoned + 1;
        hang_up t p;
        run_actions t p (sup_event t p Supervisor.Io_failed))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ ->
      hang_up t p;
      run_actions t p (sup_event t p Supervisor.Io_failed)
  end

(* ------------------------------------------------------------------ *)
(* Incoming side: accept / hello / frames                              *)

let drop_conn t (c : conn) =
  if observed t then emit t (Event.Dropped c.c_peer);
  Loop.forget t.loop c.c_fd;
  close_fd_quietly c.c_fd;
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
      Outbuf.add_string p.p_out (frame_of "");
      flush_out t p
    | Some _ | None -> ()

let rec conn_consume t (c : conn) =
  match c.c_peer with
  | None -> (
    match Inbuf.peek c.c_in hello_size with
    | None -> ()
    | Some hello ->
      if String.starts_with ~prefix:hello_magic hello then begin
        let id = Int64.to_int (String.get_int64_be hello (String.length hello_magic)) in
        if id < 0 || id >= t.n || id = t.self then poison_conn t c
        else begin
          if observed t then emit t (Event.Hello id);
          c.c_peer <- Some id;
          Inbuf.drop c.c_in hello_size;
          (* Traffic from the peer is host-liveness evidence: it refreshes an
             Up link's half-open clock and un-parks an exhausted one (the
             supervisor absorbs it in every other state). *)
          (match t.peers.(id) with
          | Some p -> run_actions t p (sup_event t p Supervisor.Rx)
          | None -> ());
          conn_consume t c
        end
      end
      else poison_conn t c)
  | Some src -> (
    match Inbuf.next_frame c.c_in ~max_frame:t.knobs.max_frame with
    | Ok None -> ()
    | Error _ ->
      (* Oversized or corrupt length prefix: there is no way to
         resynchronise a stream after a bad prefix — poison the
         connection (the peer's supervisor will redial). *)
      poison_conn t c
    | Ok (Some payload) ->
      let len = String.length payload in
      t.stats.recv_frames <- t.stats.recv_frames + 1;
      t.stats.recv_bytes <- t.stats.recv_bytes + Transport.frame_header_size + len;
      if observed t then emit t (Event.Recv { peer = src; bytes = len });
      (match t.peers.(src) with
      | Some p -> run_actions t p (sup_event t p Supervisor.Rx)
      | None -> ());
      if len = 0 then ack_probe t ~src else t.handler ~src payload;
      conn_consume t c)

let conn_read t (c : conn) =
  match Inbuf.read c.c_in c.c_fd with
  | 0 -> drop_conn t c
  | _ -> conn_consume t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn t c

let accept_conn t listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let c = { c_fd = fd; c_in = Inbuf.create 4096; c_peer = None } in
    t.conns <- c :: t.conns;
    Loop.on_readable t.loop fd (fun () -> conn_read t c)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let supervise_period (k : Tact_replica.Config.transport_knobs) =
  Float.max 0.005 (Float.min 0.05 (k.backoff_base /. 2.0))

let listen t ~addr =
  if t.closed then invalid_arg "Tcp.listen: closed";
  match t.listen_fd with
  | Some _ -> ()
  | None ->
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.set_nonblock fd;
    Unix.bind fd addr;
    Unix.listen fd t.knobs.listen_backlog;
    t.listen_fd <- Some fd;
    Loop.on_readable t.loop fd (fun () -> accept_conn t fd);
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
      enqueue t p (frame_of payload);
      Ok ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.listen_fd with
    | Some fd ->
      Loop.forget t.loop fd;
      close_fd_quietly fd
    | None -> ());
    t.listen_fd <- None;
    List.iter
      (fun c ->
        Loop.forget t.loop c.c_fd;
        close_fd_quietly c.c_fd)
      t.conns;
    t.conns <- [];
    Array.iter (function Some p -> hang_up t p | None -> ()) t.peers
  end
