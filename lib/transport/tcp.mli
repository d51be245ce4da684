(** The hardened TCP/Unix-socket backend — the production instance of the
    {!Tact_store.Transport} seam (doc/TRANSPORT.md).

    Topology: every replica dials every peer and accepts from every peer;
    the connection this node dials to X carries its frames to X (and X's
    probe acks back), while X's frames arrive on the connection X dialed
    here.  Each dialed connection is supervised by the pure per-peer
    {!Supervisor} state machine: connect/read/write deadlines, bounded
    retries with exponential backoff and decorrelated jitter, half-open
    probing, and a resync trigger ({!set_on_peer_up}) on every transition
    into Up.

    Graceful degradation: frames for a down or parked peer are parked in a
    bounded per-peer buffer (oldest dropped beyond the cap, counted in
    {!stats}); the replica keeps serving within its declared bounds and the
    reconnect resync heals whatever parking lost.

    Byte-level hardening: every connection is a {!Conn}, framed under the
    configured [max_frame] bound checked {e before} allocation; a peer
    sending an oversized or corrupt prefix poisons only its own connection.
    A raw 16-byte hello authenticates the peer id of every delivery. *)

type t

type stats = {
  mutable sent_frames : int;
  mutable sent_bytes : int;
  mutable recv_frames : int;
  mutable recv_bytes : int;
  mutable parked_frames : int;  (** currently parked for down peers *)
  mutable parked_drops : int;  (** frames dropped off the park cap *)
  mutable probes : int;  (** half-open probes sent *)
  mutable reconnects : int;  (** transitions into Up after the first *)
  mutable poisoned : int;  (** connections closed on protocol violations *)
}

val create :
  ?park_cap_bytes:int ->
  ?on_event:(Tact_store.Event.t -> unit) ->
  loop:Loop.t ->
  self:int ->
  addrs:Unix.sockaddr array ->
  knobs:Tact_replica.Config.transport_knobs ->
  rng:Tact_util.Prng.t ->
  unit ->
  t
(** [addrs.(j)] is peer [j]'s listen address; [addrs.(self)] is ours.
    [park_cap_bytes] (default 64 MiB) bounds each peer's parked backlog.
    [on_event] receives the connection events (link transitions, frames
    queued, parked and received, hellos, probe acks, write failures and
    dropped connections), stamped with {!Loop.now}; without it nothing is
    built.
    Nothing touches the network until {!listen}.  If the process has no
    [SIGPIPE] handler installed, the signal is set to ignore so writes into
    reset sockets surface as [EPIPE] io errors instead of killing the
    process (a handler the host installed is left alone). *)

val listen : t -> addr:Unix.sockaddr -> unit
(** Bind + listen on [addr] and arm the supervision heartbeat that drives
    dialling, backoff, connect deadlines and half-open probing.  Idempotent. *)

val self : t -> int
val size : t -> int

val send : t -> dst:int -> string -> (unit, Tact_store.Transport.error) result
(** Queue one wire payload for [dst]: framed and written when the peer's
    connection is up, parked otherwise.  [Ok] means accepted-or-parked.
    Errors: [Closed] after {!close}, [Unreachable] for a bad [dst],
    [Too_large] beyond the configured frame bound. *)

val set_handler : t -> (src:int -> string -> unit) -> unit
(** Delivery callback: one call per decoded incoming frame, with the
    hello-authenticated sender id. *)

val set_on_peer_up : t -> (int -> unit) -> unit
(** Fires (with the peer id) on every transition of a dialed connection
    into Up — the reconnect-resync hook; wire it to
    {!Tact_replica.Replica.resync}. *)

val peer_state : t -> int -> Supervisor.state
val peer_up : t -> int -> bool
val peer_parked : t -> int -> bool

val stats : t -> stats

val close : t -> unit
(** Idempotent: close the listener, every accepted connection and every
    dialed connection; subsequent {!send}s return [Error (Closed _)]. *)
