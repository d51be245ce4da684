(** A sharded conit space: interest-set partial replication over independent
    per-shard sub-systems.

    The paper's conit model already localises consistency to named units;
    sharding exploits that locality for scale.  A {!Tact_store.Shard} router
    statically partitions the conit space into [shards] slices, and each
    slice is replicated as its own complete {!System} — its own write logs,
    database images, version vectors, network and event queue — spanning
    exactly the replicas whose {e interest set} ({!Config.interest})
    contains it.  A replica therefore stores and syncs only the shards its
    accesses touch.

    Because shards share no mutable state (the router is an immutable pure
    function), their engines are embarrassingly parallel: {!run} drains
    them on a [jobs]-domain pool, the caller one of the [jobs], and the
    outcome is bit-identical at any job count ({!digest} compares equal).
    With [shards = 1] and full interest, a sharded system reduces exactly to a plain {!System} under the same
    seed — the differential tests assert byte identity.

    Cross-shard accesses are rejected: a write's affected conits (plus any
    depend-on conits) must route to a single shard, the unit of replication.
    The wire protocol carries the shard id in every {!Tact_store.Batch}
    frame; a frame that reaches a different shard's log is rejected and
    counted ({!Replica.stats.wrong_shard_frames}) — see
    {!Mutation.Wrong_shard} for the planted routing bug the
    interest-set-aware checker must catch. *)

type t

val create :
  ?seed:int ->
  ?jitter:float ->
  ?loss:float ->
  ?track_writes:bool ->
  ?mutation:Mutation.t ->
  ?router:Tact_store.Shard.t ->
  topology:Tact_sim.Topology.t ->
  config:Config.t ->
  unit ->
  t
(** Build one sub-system per shard.  [config] is the global configuration:
    [config.shards] fixes the shard count, [config.interest] the per-replica
    subscriptions (default: every replica subscribes to every shard), and
    each shard's sub-config inherits everything else with the conit list
    filtered to the shard's slice and [shard_id] stamped.  [router] defaults
    to [Shard.by_hash ~shards] ([Shard.single] when [shards = 1]); an
    explicit router must agree with [config.shards] on the shard count.
    Shard [s] seeds its sub-system with [seed + s], so shard 0 of a 1-shard
    system replays the unsharded run exactly.  [mutation] (default [Off])
    plants a bug: [Wrong_shard] in the router, any other in every
    sub-system's replicas ({!Mutation}).

    Raises [Invalid_argument] if a shard has no subscribers, or if a
    [Primary p] scheme names a replica that does not subscribe to every
    shard (the primary must be able to commit every slice). *)

val of_system : System.t -> t
(** A one-shard view of an existing system: every replica subscribes, ids
    are unchanged, and the view shares the system's state (nothing is
    copied or re-run).  Fault injection and the oracles take a sharded
    system; this is how a plain one is passed to them. *)

val router : t -> Tact_store.Shard.t
val shards : t -> int
val size : t -> int
(** Global replica count (replicas may subscribe to few shards). *)

val config : t -> Config.t

val sub : t -> int -> System.t
(** Shard [s]'s sub-system.  Replica ids inside it are {e local} (dense
    0..members-1); translate with {!local_id}/{!members}. *)

val members : t -> int -> int array
(** Sorted global ids of the replicas subscribed to a shard (a copy). *)

val local_id : t -> shard:int -> int -> int option
(** The local id of a global replica within a shard's sub-system, or [None]
    if it does not subscribe. *)

val subscribed : t -> shard:int -> int -> bool

val replica : t -> shard:int -> int -> Replica.t
(** The replica instance serving [shard] for global id [r].  Raises
    [Invalid_argument] if [r] does not subscribe to the shard. *)

val engine : t -> shard:int -> Tact_sim.Engine.t
(** The shard's event queue — workloads schedule client events here (each
    access must be scheduled on the engine of the shard it routes to). *)

val now : t -> float
(** Max over the shard clocks (equal across shards after a [run ~until]). *)

val route : t -> string -> int
(** The shard a conit routes to. *)

val target_shard : t -> string list -> int
(** The single shard an access touching the given conits belongs to
    (shard 0 when the list is empty).  Raises [Invalid_argument] if the
    conits span shards. *)

val submit_write :
  ?require:Tact_store.Version_vector.t ->
  ?deadline:float ->
  ?on_timeout:(unit -> unit) ->
  t ->
  replica:int ->
  deps:(string * Tact_core.Bounds.t) list ->
  affects:Tact_store.Write.weight list ->
  op:Tact_store.Op.t ->
  k:(Tact_store.Op.outcome -> unit) ->
  unit
(** Route the write to the shard its conits live on and submit it at the
    given global replica's instance there.  Raises [Invalid_argument] if the
    replica does not subscribe to that shard or the conits span shards.
    Under the {!Mutation.Wrong_shard} planted bug the routing is
    deliberately off by one shard. *)

val submit_read :
  ?require:Tact_store.Version_vector.t ->
  ?deadline:float ->
  ?on_timeout:(unit -> unit) ->
  t ->
  replica:int ->
  deps:(string * Tact_core.Bounds.t) list ->
  f:(Tact_store.Db.t -> Tact_store.Value.t) ->
  k:(Tact_store.Value.t -> unit) ->
  unit
(** Route by the depend-on conits ([f] runs against that shard's database
    view).  Same errors and planted-bug behaviour as {!submit_write}. *)

val run : ?jobs:int -> ?until:float -> t -> unit
(** Drain every shard's event queue (to virtual time [until]) on a
    [jobs]-domain pool ({!Tact_util.Pool.map_array}), counting the caller:
    at [jobs = 1] the caller drains the engines in shard order.  Shards are
    independent, so results are bit-identical at any job count, provided
    the events a caller schedules on shard engines share no mutable state
    across shards either: they run on their shard's domain. *)

val converged : t -> bool
(** Interest-set-aware quiescent convergence: within {e every} shard, all
    subscribed replicas hold identical database images.  Replicas outside a
    shard's interest set hold nothing of it and are exempt — convergence is
    per interest set, not global. *)

val shard_leaks : t -> (int * int * Tact_store.Write.id * string) list
(** Cross-shard containment audit: every [(shard, replica, write, conit)]
    where a write resident in [shard]'s logs affects a conit routing to a
    {e different} shard.  Empty in a healthy system; non-empty under the
    {!Mutation.Wrong_shard} planted bug. *)

val total_stats : t -> Replica.stats
(** Protocol counters summed over every replica of every shard. *)

val traffic : t -> Tact_sim.Net.stats
(** Network totals summed across shards ([max_message] is the max). *)

val digest : t -> string
(** Canonical JSON serialization of the observable state: per shard, per
    member replica — sorted database image, version vector, committed count
    and protocol counters.  Deterministic; the [-j1] vs [-jN] determinism
    tests compare digests byte-for-byte. *)

val iter_subs : t -> (int -> System.t -> unit) -> unit
(** Visit each shard's sub-system in shard order (fault injection and the
    oracles map global actions onto each shard through this). *)
