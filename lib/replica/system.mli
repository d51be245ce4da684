(** A complete replicated system: N replicas over a simulated network.

    The system also plays the omniscient observer: it registers every write
    accepted anywhere (with its causal context), which is what {!Verify} and
    the experiment harness consume. *)

type t

val create :
  ?seed:int ->
  ?jitter:float ->
  ?loss:float ->
  ?track_writes:bool ->
  ?mutation:Mutation.t ->
  ?on_event:(Tact_store.Event.t -> unit) ->
  topology:Tact_sim.Topology.t ->
  config:Config.t ->
  unit ->
  t
(** Build the replicas, each on a simulator endpoint: timers are engine
    events labelled with the replica's id, and a send is a {!Tact_sim.Net}
    message charged its modelled wire size and discarded on arrival if the
    target crashed after it was sent.  Background activity starts on first
    [run].
    [jitter] is the fractional random extra latency per message (default
    0.05); [loss] is an independent per-message drop probability (default
    0).  [track_writes] (default true) keeps the omniscient per-write
    registry behind {!all_writes}/{!return_time}/{!accept_vector}; disable it
    for bounded-memory scale runs, where it grows with every write ever
    accepted (those accessors then see nothing).  [mutation] (default [Off])
    plants a bug in every replica, for harness self-tests ({!Mutation}).
    [on_event] is every replica's event sink ({!Tact_store.Event}), stamped
    with virtual time; without it nothing is built. *)

val engine : t -> Tact_sim.Engine.t
val config : t -> Config.t
val net : t -> Tact_sim.Net.t
val size : t -> int
val replica : t -> int -> Replica.t
val now : t -> float

val emit : t -> (Tact_store.Event.kind -> unit) option
(** Publish into [on_event] from outside the replicas (the fault injector):
    stamped with virtual time and node -1.  [None] without a sink, so an
    unobserved run builds nothing. *)

val run : ?until:float -> t -> unit
(** Drain the event queue (up to virtual time [until]).  Equivalent to
    {!prepare}, [Engine.run], {!collect_returns}.  If a replica raises out of
    an event handler, every replica's transport is torn down ({!close})
    before the exception propagates — an aborted run never leaks backend
    resources. *)

val close : t -> unit
(** Idempotent: tear down every replica's transport ({!Replica.close}).
    Further protocol sends are inert; inspection (records, stats, databases)
    still works.  [run] calls this automatically on an exceptional exit. *)

val prepare : t -> unit
(** Start background activity (gossip, retry loops) on every replica without
    draining any events.  Idempotent; [run] calls it.  Exposed so a driver
    that owns several systems ({!Sharded}) can start them all and then drain
    their engines itself, on a domain pool. *)

val collect_returns : t -> unit
(** Fold write return times out of the replicas' access records into the
    omniscient write registry ({!return_time}).  [run] does this after
    draining; a driver that drains the engine itself must call it. *)

val all_writes : t -> Tact_store.Write.t list
(** Every write accepted anywhere, in canonical (timestamp) order. *)

val write_count : t -> int

val return_time : t -> Tact_store.Write.id -> float
(** When the write returned to its client (the basis of external order). *)

val accept_vector : t -> Tact_store.Write.id -> Tact_store.Version_vector.t
(** The originating replica's vector just before accepting the write — the
    write's causal context. *)

val records : t -> Tact_core.Access.t list
(** All access records from all replicas, ordered by serve time. *)

val traffic : t -> Tact_sim.Net.stats

val total_stats : t -> Replica.stats
(** Replica protocol counters summed across the system. *)

val converged : t -> bool
(** Do all replicas hold identical full database images?  (The eventual-
    consistency check after quiescence.) *)
