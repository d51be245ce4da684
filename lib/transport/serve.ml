open Tact_util
open Tact_store
module Replica = Tact_replica.Replica
module Wire = Tact_replica.Wire
module Config = Tact_replica.Config

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
  mutable client_listen : Conn.t option;
  mutable clients : Conn.t list;  (* Client-protocol frames in, responses out *)
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

let drop_client t c =
  Conn.close c;
  t.clients <- List.filter (fun c' -> c' != c) t.clients

let rec flush_client t c =
  match Conn.flush c ~resume:(fun () -> flush_client t c) with
  | Ok (_ : int) -> ()
  | Error (_ : Unix.error) -> drop_client t c

let respond t c resp =
  if not (Conn.is_closed c) then begin
    Codec.Frame.clear t.frame;
    Client.encode_response t.frame resp;
    Conn.add_frame_of c t.frame;
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
let handle_request t c req =
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

let handle_frame t c payload =
  match Client.decode_request payload with
  | Ok req -> handle_request t c req
  | Error e -> respond t c (Client.Err (Transport.error_to_string e))

let client_read t c =
  match Conn.read c with
  | Ok false -> ()
  | Ok true ->
    let max_frame = t.config.Config.transport.Config.max_frame in
    if Result.is_error (Conn.frames c ~max_frame (handle_frame t c)) then drop_client t c
  | Error _ -> drop_client t c

let accept_client t c =
  t.clients <- c :: t.clients;
  Conn.on_readable c (fun () -> client_read t c)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let start t =
  Tcp.listen t.tcp ~addr:t.peer_addr;
  t.client_listen <-
    Some
      (Conn.listen t.loop t.client_addr
         ~backlog:t.config.Config.transport.Config.listen_backlog (accept_client t));
  Replica.start t.replica

let close t =
  if not t.stopped then begin
    t.stopped <- true;
    Option.iter Conn.close t.client_listen;
    List.iter Conn.close t.clients;
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
    Option.iter Conn.close t.client_listen;
    let deadline =
      Loop.now t.loop +. t.config.Config.transport.Config.drain_timeout
    in
    Loop.every t.loop ~tag:"drain" ~period:0.02 (fun () ->
        if t.stopped then false
        else begin
          let drained =
            Replica.pending_count t.replica = 0
            && List.for_all (fun c -> Conn.unsent c = 0) t.clients
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
