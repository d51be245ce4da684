open Tact_util
open Tact_store
module Replica = Tact_replica.Replica
module Wire = Tact_replica.Wire
module Config = Tact_replica.Config

(* A connected client: length-prefixed Client-protocol frames in, buffered
   responses out.  Same read-buffer discipline as Tcp's accepted conns. *)
type client_conn = {
  k_fd : Unix.file_descr;
  k_in : Inbuf.t;
  k_out : Outbuf.t;
  mutable k_closed : bool;
}

type t = {
  sid : int;
  n : int;
  loop : Loop.t;
  tcp : Tcp.t;
  faulty : Faulty.t;
  replica : Replica.t;
  config : Config.t;
  peer_addr : Unix.sockaddr;  (* our slot in the peer address array *)
  client_addr : Unix.sockaddr;
  request_timeout : float;
  frame : Codec.Frame.t;  (* response encode arena, reused *)
  mutable client_listen : Unix.file_descr option;
  mutable clients : client_conn list;
  mutable draining : bool;
  mutable stopped : bool;
}

let loop t = t.loop
let replica t = t.replica
let tcp t = t.tcp
let faulty t = t.faulty
let id t = t.sid
let draining t = t.draining
let stopped t = t.stopped

let peers_up t =
  let up = ref 0 in
  for j = 0 to t.n - 1 do
    if j <> t.sid && Tcp.peer_up t.tcp j then incr up
  done;
  !up

let create ?(request_timeout = 30.0) ?(nominal_delay = 0.0) ?on_event ~id ~n ~peer_addrs
    ~client_addr ~(config : Config.t) ~seed () =
  if Array.length peer_addrs <> n then invalid_arg "Serve.create: addrs/n mismatch";
  (match Config.validate ~n config with
  | Ok () -> ()
  | Error m -> invalid_arg ("Serve.create: " ^ m));
  let loop = Loop.create () in
  let rng = Prng.create ~seed in
  let tcp =
    Tcp.create ?on_event ~loop ~self:id ~addrs:peer_addrs
      ~knobs:config.Config.transport ~rng:(Prng.split rng) ()
  in
  let faulty =
    Faulty.create ~self:id ~n ~nominal_delay
      ~schedule:(fun ~delay f -> Loop.schedule loop ~tag:"fault-delay" ~delay f)
      ~send:(fun ~dst payload -> Tcp.send tcp ~dst payload)
      ()
  in
  let wire = Codec.Frame.create () in
  let endpoint =
    {
      Transport.ep_now = (fun () -> Loop.now loop);
      ep_schedule = (fun ~tag ~delay f -> Loop.schedule loop ~tag ~delay f);
      ep_every = (fun ~tag ~period f -> Loop.every loop ~tag ~period f);
      ep_send =
        (fun ~dst msg ->
          (* Serialise through one reusable arena, then hand the bytes to
             the fault decorator in front of the socket. *)
          Codec.Frame.clear wire;
          Wire.encode wire msg;
          Faulty.send faulty ~dst (Codec.Frame.contents wire));
      ep_close = (fun () -> Tcp.close tcp);
      ep_emit = on_event;
    }
  in
  let replica = Replica.create ~id ~n ~endpoint ~config () in
  Tcp.set_handler tcp (fun ~src payload -> Replica.deliver_wire replica ~src payload);
  (* Reconnect implies resync — deferred so the pull runs outside the
     supervisor's action processing. *)
  Tcp.set_on_peer_up tcp (fun peer ->
      Loop.defer loop (fun () -> Replica.resync replica ~peer));
  {
    sid = id;
    n;
    loop;
    tcp;
    faulty;
    replica;
    config;
    peer_addr = peer_addrs.(id);
    client_addr;
    request_timeout;
    frame = Codec.Frame.create ();
    client_listen = None;
    clients = [];
    draining = false;
    stopped = false;
  }

(* ------------------------------------------------------------------ *)
(* Client protocol service                                             *)

let close_fd_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let drop_client t (c : client_conn) =
  if not c.k_closed then begin
    c.k_closed <- true;
    Loop.forget t.loop c.k_fd;
    close_fd_quietly c.k_fd;
    t.clients <- List.filter (fun c' -> c' != c) t.clients
  end

let rec flush_client t (c : client_conn) =
  if not c.k_closed then begin
    if Outbuf.is_empty c.k_out then Loop.clear_writable t.loop c.k_fd
    else
      match Outbuf.write c.k_out c.k_fd with
      | (_ : int) ->
        if Outbuf.is_empty c.k_out then Loop.clear_writable t.loop c.k_fd
        else Loop.on_writable t.loop c.k_fd (fun () -> flush_client t c)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Loop.on_writable t.loop c.k_fd (fun () -> flush_client t c)
      | exception Unix.Unix_error _ -> drop_client t c
  end

let respond t (c : client_conn) resp =
  if not c.k_closed then begin
    Codec.Frame.clear t.frame;
    Client.encode_response t.frame resp;
    let payload = Codec.Frame.contents t.frame in
    Outbuf.add_string c.k_out
      (Transport.encode_frame_header ~len:(String.length payload));
    Outbuf.add_string c.k_out payload;
    flush_client t c
  end

let status t =
  {
    Client.c_id = t.sid;
    c_n = t.n;
    c_up = Replica.is_up t.replica;
    c_log_len = Wlog.num_known (Replica.log t.replica);
    c_pending = Replica.pending_count t.replica;
    c_malformed = Replica.malformed_frames t.replica;
    c_peers_up = peers_up t;
    c_now = Loop.now t.loop;
  }

(* Every bound component is a number, zero or more ([infinity] leaves it
   unconstrained); NaN fails the comparison. *)
let sane_bounds { Tact_core.Bounds.ne; ne_rel; oe; st } =
  ne >= 0.0 && ne_rel >= 0.0 && oe >= 0.0 && st >= 0.0

(* Input the replica must never see is answered [Err] here: a non-finite
   weight would make the conit's value NaN on every replica, and a NaN or
   negative bound would park the query until its deadline. *)
let handle_request t (c : client_conn) req =
  let deadline = Loop.now t.loop +. t.request_timeout in
  match (req : Client.request) with
  | Client.Status -> respond t c (Client.Status_r (status t))
  | Client.Submit { nweight; oweight; _ }
    when not (Float.is_finite nweight && Float.is_finite oweight) ->
    respond t c (Client.Err "write weights must be finite")
  | Client.Query { bounds; _ } when not (sane_bounds bounds) ->
    respond t c (Client.Err "bounds must be numbers, zero or more")
  | Client.Submit { conit; nweight; oweight; op } ->
    Replica.submit_write t.replica ~deadline
      ~on_timeout:(fun () -> respond t c (Client.Err "deadline"))
      ~deps:[]
      ~affects:[ { Write.conit; nweight; oweight } ]
      ~op
      ~k:(fun outcome -> respond t c (Client.Outcome outcome))
  | Client.Query { key; conit; bounds } ->
    Replica.submit_read t.replica ~deadline
      ~on_timeout:(fun () -> respond t c (Client.Err "deadline"))
      ~deps:[ (conit, bounds) ]
      ~f:(fun db -> Db.get db key)
      ~k:(fun v -> respond t c (Client.Value v))

let rec client_consume t (c : client_conn) =
  match
    Inbuf.next_frame c.k_in ~max_frame:t.config.Config.transport.Config.max_frame
  with
  | Ok None -> ()
  | Error _ -> drop_client t c
  | Ok (Some payload) ->
    (match Client.decode_request payload with
    | Ok req -> handle_request t c req
    | Error e -> respond t c (Client.Err (Transport.error_to_string e)));
    client_consume t c

let client_read t (c : client_conn) =
  match Inbuf.read c.k_in c.k_fd with
  | 0 -> drop_client t c
  | _ -> client_consume t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_client t c

let accept_client t listen_fd =
  match Unix.accept listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    let c =
      { k_fd = fd; k_in = Inbuf.create 4096; k_out = Outbuf.create 512;
        k_closed = false }
    in
    t.clients <- c :: t.clients;
    Loop.on_readable t.loop fd (fun () -> client_read t c)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start t =
  Tcp.listen t.tcp ~addr:t.peer_addr;
  let fd = Unix.socket (Unix.domain_of_sockaddr t.client_addr) Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock fd;
  Unix.bind fd t.client_addr;
  Unix.listen fd t.config.Config.transport.Config.listen_backlog;
  t.client_listen <- Some fd;
  Loop.on_readable t.loop fd (fun () -> accept_client t fd);
  Replica.start t.replica

let close t =
  if not t.stopped then begin
    t.stopped <- true;
    (match t.client_listen with
    | Some fd ->
      Loop.forget t.loop fd;
      close_fd_quietly fd
    | None -> ());
    t.client_listen <- None;
    List.iter (fun c -> Loop.forget t.loop c.k_fd; close_fd_quietly c.k_fd) t.clients;
    t.clients <- [];
    Replica.close t.replica;
    (* Replica.close runs ep_close -> Tcp.close; belt and braces: *)
    Tcp.close t.tcp;
    Loop.stop t.loop
  end

let request_stop t =
  if not (t.draining || t.stopped) then begin
    t.draining <- true;
    (* Stop accepting new clients; existing ones may still collect their
       pending responses. *)
    (match t.client_listen with
    | Some fd ->
      Loop.forget t.loop fd;
      close_fd_quietly fd
    | None -> ());
    t.client_listen <- None;
    let deadline =
      Loop.now t.loop +. t.config.Config.transport.Config.drain_timeout
    in
    Loop.every t.loop ~tag:"drain" ~period:0.02 (fun () ->
        if t.stopped then false
        else begin
          let drained =
            Replica.pending_count t.replica = 0
            && List.for_all (fun c -> Outbuf.is_empty c.k_out) t.clients
          in
          if drained || Loop.now t.loop >= deadline then begin
            close t;
            false
          end
          else true
        end)
  end

let run t =
  Loop.run t.loop;
  if not t.stopped then close t
