(** Per-system configuration for a set of TACT replicas.

    Every field is a production setting, validated the same way in the
    simulator and in the [tact_serve] daemon.  Planted bugs for harness
    self-tests are not configuration: they are a {!Mutation.t} that only
    [?mutation] on {!Replica.create}, {!System.create} and
    {!Sharded.create} accepts.  [Tact_transport.Serve.create] passes none,
    so a deployed replica cannot be configured into one. *)

type commit_scheme =
  | Stability
      (** Writes commit in canonical timestamp order once every origin's
          cover time has passed them.  The committed order is compatible with
          external and causal order, so order-error bounds hold with respect
          to the canonical ECG history (the property Theorems 2/3 need). *)
  | Primary of int
      (** The given replica assigns commit sequence numbers in arrival order
          (Bayou-style).  Commit progress needs only the primary, not every
          origin — faster under partitions that spare the primary — but the
          committed order is not in general compatible with external order
          (1SR, not 1SR+EXT).  Ablation E12 compares the two. *)

(** How anti-entropy traffic is shipped. *)
type sync_mode =
  | Per_write
      (** The paper-literal path: every sync event (budget push, retry,
          gossip tick, pull reply) emits its own [Transfer] message. *)
  | Batched
      (** Coalesced framed batches: a replica marks a peer dirty instead of
          sending immediately, and one {!Tact_store.Batch} frame — delta
          against the peer's last-known vector, or a snapshot fallback when
          the log has truncated past it — is flushed per dirty peer per
          {!field-batch_flush} window.  Payloads are truly serialised through
          {!Tact_store.Codec.Frame}.  Same final databases as [Per_write];
          far fewer, larger messages. *)

(** Knobs for real transport backends ({!Tact_transport.Tcp}) and their
    per-peer connection supervisors.  Inert in simulation — the deterministic
    net has no deadlines, sockets or retries — but validated unconditionally
    ({!validate}), so a bad deployment configuration fails at system or
    daemon startup rather than mid-run. *)
type transport_knobs = {
  connect_timeout : float;  (** deadline for one connect attempt (seconds) *)
  io_timeout : float;  (** read/write progress deadline (seconds) *)
  backoff_base : float;  (** first reconnect delay (seconds) *)
  backoff_cap : float;
      (** ceiling for the decorrelated-jitter exponential backoff (seconds) *)
  retry_limit : int;
      (** consecutive failed connects before the supervisor stops dialling
          and falls back to probing once per backoff cap; [0] = never stop *)
  half_open_after : float;
      (** silence window (seconds) after which an apparently-live connection
          is suspected half-open and probed *)
  max_frame : int;  (** largest accepted wire frame (bytes) *)
  listen_backlog : int;
  drain_timeout : float;
      (** grace period for the daemon's SIGTERM drain (seconds) *)
}

val default_transport : transport_knobs
(** 5 s connect, 10 s io, 0.1–5 s backoff, unbounded retries, 30 s half-open
    window, 16 MiB frames, backlog 16, 5 s drain. *)

type t = {
  conits : Tact_core.Conit.t list;
      (** declared conits; any conit not listed is treated as unconstrained *)
  commit_scheme : commit_scheme;
  budget_policy : Tact_protocols.Budget.policy;
  antientropy_period : float option;
      (** background gossip period (seconds); [None] disables gossip so that
          only the compulsory protocol traffic remains — the configuration
          the overhead experiments measure *)
  retry_period : float;
      (** how often a blocked access re-issues its synchronisation requests
          (covers message loss under partitions) *)
  truncate_keep : int option;
      (** retain at most this many committed writes in the log, discarding
          the oldest after each commitment step; peers that fall behind the
          truncation point are brought up to date with a full-state snapshot
          instead of a write-by-write diff.  [None] retains everything. *)
  initial_db : (string * Tact_store.Value.t) list;
  procs : Tact_store.Op.procs;
      (** the write procedures of this system: every replica resolves
          {!Tact_store.Op.Named} ops against this one table, so an unknown
          name conflicts identically everywhere.  Names must be distinct
          ({!validate}).  Default [[]]. *)
  gossip_plan : (int -> int array) option;
      (** per-replica gossip target ring, cycled one target per gossip tick;
          [None] means round-robin over every peer.  Topology-aware plans
          (e.g. mostly-LAN gossip with designated WAN bridges) cut wide-area
          traffic — experiment E21. *)
  sync : sync_mode;  (** anti-entropy shipping mode; default [Per_write] *)
  batch_flush : float;
      (** [Batched] only: the debounce window (seconds) between a peer first
          becoming dirty and its coalesced batch frame being flushed *)
  record_accesses : bool;
      (** capture per-access observation records ({!Replica.records}, the
          consistency verifier's input).  Default [true].  A record is plain
          data of a fixed shape: two vector copies taken at service time
          (the known and the committed vector), from which {!Verify}
          rebuilds what the access observed.  Disable for long runs — the
          records grow linearly with every access, forever. *)
  bounded_log : bool;
      (** bound per-replica log memory by the truncation horizon: truncation
          and snapshot installation also empty the cells of the writes they
          drop ({!Tact_store.Wlog.create_bounded}).  Pair with
          [truncate_keep].  The replica's budget window holds only the own
          writes some peer has not confirmed, so with this flag a replica's
          log memory depends on what is in flight, not on how many writes
          the run has processed. *)
  shards : int;
      (** how many shards the conit space is partitioned into (see
          {!Tact_store.Shard}).  Plain {!System}s serve the whole space as
          one shard; {!Sharded} systems build one sub-system per shard.
          Default 1. *)
  shard_id : int;
      (** the shard this replica instance's log serves.  Stamped into every
          outgoing {!Tact_store.Batch} frame and checked against incoming
          ones: a frame carrying another shard's log is rejected (and counted
          in {!Replica.stats}) instead of applied.  Default 0. *)
  interest : (int -> int list) option;
      (** interest sets: [interest r] is the sorted list of shard ids replica
          [r] subscribes to — it replicates, syncs and serves only those
          shards, and only they are required to converge at it ({!Tact_check}
          O3).  [None] (default) subscribes every replica to every shard. *)
  transport : transport_knobs;
      (** deadlines, backoff and framing bounds for real transport backends;
          default {!default_transport} *)
}

val default : t
(** Stability commitment, even budgets, no gossip, 1 s retry, empty db, no
    declared conits. *)

val conit : t -> string -> Tact_core.Conit.t
(** The declaration for a conit name (unconstrained if undeclared). *)

val bad_gossip_plan : n:int -> t -> (int * int) option
(** The first out-of-range or self-referential gossip target, as
    [(replica, target)], probing the plan for every replica id.  [None] when
    no plan is set or the plan is well-formed.  Shared by {!validate} and the
    static analyzer. *)

val validate : n:int -> t -> (unit, string) result
(** Sanity-check a configuration against the system size: the primary id
    must name a replica, periods (anti-entropy, retry, batch flush) must be
    positive and not NaN, retention non-negative, conit and procedure names
    unique, every declared conit well-formed ({!Tact_core.Conit.malformed}:
    NE, relative NE, OE and ST bounds non-negative and non-NaN, initial
    value not NaN), a [Proportional] budget policy well-formed for [n]
    ({!Tact_protocols.Budget.malformed}: one non-negative rate per replica
    with a positive total), [gossip_plan], when set, must return peer ids
    in range for every replica, and the {!transport_knobs} must be coherent
    (positive non-NaN deadlines, [backoff_base <= backoff_cap], a sane
    [max_frame], a positive backlog).  This is the only gate for a
    configuration's shape: {!System.create}, {!Sharded.create} and
    [Tact_transport.Serve.create] run it and raise [Invalid_argument] on
    [Error]. *)
