(** One live replica process: the glue {!bin/tact_serve} runs.

    Wires a {!Loop}, a {!Tcp} backend and a {!Faulty} fault-injection
    decorator into a {!Tact_store.Transport.endpoint} that encodes every
    message through {!Tact_replica.Wire}, mounts a replica on it
    ({!Tact_replica.Replica.create}), serves the {!Client} protocol
    on a second listening socket, and owns the lifecycle: start, run,
    graceful SIGTERM-style drain, idempotent close.  Clients connect over
    {!Conn}, as peers do; responses are framed straight from one arena.

    Every outgoing peer frame passes through the {!Faulty} decorator (a
    transparent no-op until a fault schedule programs it), so nemesis
    disturbances exercise the {e real} transport: parked frames, supervisor
    backoff, reconnect resync. *)

type t

val create :
  ?request_timeout:float ->
  ?nominal_delay:float ->
  ?on_event:(Tact_store.Event.t -> unit) ->
  id:int ->
  n:int ->
  peer_addrs:Unix.sockaddr array ->
  client_addr:Unix.sockaddr ->
  config:Tact_replica.Config.t ->
  seed:int ->
  unit ->
  t
(** Pure construction — no sockets until {!start}.  Raises
    [Invalid_argument] when [config] fails {!Tact_replica.Config.validate}
    for [n] replicas, as [System.create] does.  [request_timeout]
    (default 30 s) bounds how long a client access may stay parked on unmet
    bounds before an [Err "deadline"] response; [nominal_delay] seeds the
    {!Faulty} decorator's baseline one-way delay (default 0: synchronous).
    [seed] derives the supervisor-jitter stream; fault knobs installed
    later carry their own seeds.  [on_event] is the process's one event
    sink: the replica's endpoint and the {!Tcp} backend both publish into
    it, stamped with {!Loop.now}, so its events arrive in time order. *)

val loop : t -> Loop.t
val replica : t -> Tact_replica.Replica.t
val tcp : t -> Tcp.t
val faulty : t -> Faulty.t
val id : t -> int

val peers_up : t -> int
(** Peer connections currently established (out of [n - 1]). *)

val start : t -> unit
(** Bind the peer and client listeners, start the replica's background
    activity.  Call once. *)

val run : t -> unit
(** Drive the event loop until {!request_stop} completes (or {!close}). *)

val request_stop : t -> unit
(** Graceful drain: stop accepting clients, let parked accesses and pending
    responses finish, then tear everything down — by
    [config.transport.drain_timeout] at the latest.  The SIGTERM handler's
    target (via {!Loop.defer}).  Idempotent. *)

val draining : t -> bool
val stopped : t -> bool

val close : t -> unit
(** Immediate idempotent teardown: replica transport, peer sockets, client
    sockets, loop.  {!run} returns.  Safe after (or instead of) a drain. *)
