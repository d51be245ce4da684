(** A TACT replica node.

    Each replica is a state machine driven by the discrete-event engine: it
    accepts logical reads and writes from clients, enforces the per-access
    (NE, OE, ST) bounds before serving them, and exchanges writes with peers
    through anti-entropy transfers.  The enforcement mechanisms follow
    Section 5 of the paper:

    - {b Numerical error} is bounded proactively and sender-side.  A conit's
      declared system-wide bound is split into per-writer shares
      ({!Tact_protocols.Budget}); a write {e returns to its client} only once
      the weight of this replica's unacknowledged writes fits every peer's
      share — pushing writes (and awaiting acks) when it does not.  Reads
      requesting a bound tighter than the declared one trigger a one-off pull
      round from all peers.
    - {b Order error} is bounded reactively: when an access requires a conit's
      tentative (uncommitted) weight to be below its bound, the replica drives
      the write-commitment protocol — advancing cover times via pulls under
      {!Config.Stability}, or syncing with the primary under
      {!Config.Primary} — and serves the access once the tentative suffix has
      shrunk enough.
    - {b Staleness} is bounded via per-origin cover times: serving an access
      with staleness bound [t] requires every peer's cover to be within [t]
      of now, pulling from the stale ones first.

    All client entry points are asynchronous (continuation-passing): in the
    simulation there are no threads to block, so a bound that cannot yet be
    met parks the access and the continuation fires when it is served. *)

type t

type stats = {
  mutable pushes_budget : int;  (** transfers forced by the NE budget *)
  mutable pulls_ne : int;  (** pull rounds for tighter-than-declared NE *)
  mutable pulls_oe : int;  (** sync actions forced by OE bounds *)
  mutable pulls_st : int;  (** pulls forced by staleness bounds *)
  mutable gossips : int;
  mutable blocked_accesses : int;  (** accesses that could not be served immediately *)
  mutable snapshots_sent : int;  (** full-state transfers to peers behind the
                                     truncation point *)
  mutable snapshots_installed : int;
  mutable timeouts : int;  (** accesses abandoned at their deadline *)
  mutable batches : int;  (** coalesced anti-entropy frames sent (Batched sync) *)
  mutable wrong_shard_frames : int;
      (** incoming Batch frames rejected because they carried another shard's
          log — nonzero only under a cross-shard routing bug *)
  mutable malformed_frames : int;
      (** incoming wire payloads rejected before application: bytes that do
          not decode, sender-id spoofs, or embedded batch frames that fail
          the typed decoder.  Always 0 in simulation (the simulator delivers
          messages as their senders built them); nonzero only when a real
          transport feeds hostile or corrupt input through {!deliver_wire}. *)
}

val create :
  id:int ->
  n:int ->
  endpoint:Wire.msg Tact_store.Transport.endpoint ->
  config:Config.t ->
  ?mutation:Mutation.t ->
  ?on_accept:(Tact_store.Write.t -> Tact_store.Version_vector.t -> unit) ->
  unit ->
  t
(** A replica mounted on a transport endpoint: clock and timers come from
    it, and every outgoing message goes to its [ep_send].  Incoming messages
    must be fed to {!receive} (or, as bytes, to {!deliver_wire}).
    {!System.create} builds simulator endpoints over the simulated network;
    [Tact_transport.Serve.create] builds one that encodes through {!Wire}.
    [mutation] (default [Off]) plants a bug for harness self-tests
    ({!Mutation}).  [on_accept] fires whenever this replica accepts a
    locally originated write, with a copy of the pre-acceptance version
    vector (the write's causal context) — the hook the omniscient verifier
    uses. *)

val id : t -> int
val log : t -> Tact_store.Wlog.t
val db : t -> Tact_store.Db.t
val now : t -> float

val submit_read :
  ?require:Tact_store.Version_vector.t ->
  ?deadline:float ->
  ?on_timeout:(unit -> unit) ->
  t ->
  deps:(string * Tact_core.Bounds.t) list ->
  f:(Tact_store.Db.t -> Tact_store.Value.t) ->
  k:(Tact_store.Value.t -> unit) ->
  unit
(** [require] additionally delays service until the replica's log covers the
    given vector — the mechanism behind session guarantees (the replica pulls
    from the origins it lags).  [deadline] (absolute virtual time) bounds how
    long the access may stay parked on unmet bounds: if it passes first, the
    access is abandoned and [on_timeout] (if any) is invoked instead of [k] —
    the availability side of the consistency/availability tradeoff.  Each
    replica keeps one deadline sweep, armed for the earliest deadline among
    its parked accesses, not a timer per access: every access still times
    out at exactly its own deadline, and an access served in time leaves no
    timer behind. *)

val submit_write :
  ?require:Tact_store.Version_vector.t ->
  ?deadline:float ->
  ?on_timeout:(unit -> unit) ->
  t ->
  deps:(string * Tact_core.Bounds.t) list ->
  affects:Tact_store.Write.weight list ->
  op:Tact_store.Op.t ->
  k:(Tact_store.Op.outcome -> unit) ->
  unit

val records : t -> Tact_core.Access.t list
(** Access records emitted so far (most recent first). *)

val stats : t -> stats
(** A copy of the replica's counters: later activity does not change it. *)

val zero_stats : unit -> stats
val add_stats : stats -> stats -> stats
(** A fresh record of the fieldwise sums. *)

val start : t -> unit
(** Begin background activity (gossip, retry loop).  Call once, after every
    replica of the system has been created. *)

val pending_count : t -> int
(** Accesses currently parked on unmet bounds (diagnostics). *)

(** {2 Crash / recovery}

    A crashed replica neither processes nor emits messages — to its peers it
    is indistinguishable from a partition.  The write log is durable
    (write-ahead semantics): recovery resumes from the full log and
    resynchronises with every peer; only execution state is volatile —
    parked accesses are abandoned on crash (their [on_timeout] callbacks
    fire), and submissions to a crashed replica fail fast the same way. *)

val crash : t -> unit
val recover : t -> unit
val is_up : t -> bool
val crash_count : t -> int

val emit : t -> Tact_store.Event.kind -> unit
(** Publish one event, stamped with this replica's id and clock, into its
    endpoint's sink ([ep_emit]); a no-op without one. *)

(** {2 Incoming messages} *)

val receive : t -> src:int -> Wire.msg -> unit
(** Feed one message from transport peer [src] into the protocol.  A
    message that claims a sender other than [src] — in its own header or in
    an embedded Batch frame's — is counted in [malformed_frames] and
    dropped, as is a Batch frame that fails its typed decoder, and a message
    of the wrong shape: a vector or cover whose length is not the replica
    count, or a write or CSN entry whose origin names no replica.  Each
    refusal publishes an [Event.Malformed]; never an exception, never
    applied.  A crashed replica drops messages silently. *)

val deliver_wire : t -> src:int -> string -> unit
(** {!receive} for one wire payload (the bytes inside a transport frame).
    Total over hostile input: a payload that does not decode ({!Wire.decode})
    is counted in [malformed_frames] and dropped. *)

val malformed_frames : t -> int
(** Rejected incoming payloads so far (also in {!stats}). *)

val resync : t -> peer:int -> unit
(** Send one targeted resynchronisation pull to [peer] (no-op for out-of-range
    or self).  The reply — delta against our vector, or a snapshot via the
    peer's {!Tact_store.Batch.plan} if it has truncated past us — heals
    whatever a dead link missed; transport supervisors call this whenever a
    peer connection (re)establishes. *)

val close : t -> unit
(** Idempotent transport teardown: subsequent sends are inert, and the
    endpoint's [ep_close] runs (once).  Protocol state is untouched —
    a closed replica can still be inspected. *)

val bookkeeping_entries : t -> int
(** Size of the numerical-error bookkeeping state: the (peer, conit)
    outstanding-weight entries.  Section 5 claims the protocols scale with
    the number of {e active} conits because this state is created on demand
    rather than statically per conit; experiment E8 measures it.

    A replica keeps one state record per conit it has met, created the first
    time an access names the conit or an own write weighs on it: the
    declaration, a handle on the log's tallies ({!Tact_store.Wlog.tally}),
    and — once an own write first puts bounded weight on the conit — one
    outstanding-weight entry per peer.  An access resolves its conits once,
    at submission; an own write once, when it is served.  A parked access is
    then re-checked without a name lookup, cheapest and most selective test
    first: an unfinished NE pull round, the session vector, each conit's
    order weight, and last the staleness estimate, which is read once per
    pass over the parked accesses. *)

val sanity_check : t -> unit
(** When {!Tact_util.Sanitize.enabled}, audit this replica's execution state
    (cover times, parked-access accounting, commit and budget pointers) and
    its write log ({!Tact_store.Wlog.invariant_violations}), raising
    [Tact_util.Sanitize.Violation] tagged with the replica id and simulated
    time.  No-op otherwise.  Runs automatically after message processing and
    access submission. *)

(**/**)

val unsafe_add_outstanding : t -> peer:int -> string -> float -> unit
(** Test-only: corrupt one per-peer outstanding entry, so tests can prove
    the sanitizer detects it.  Never call otherwise. *)
