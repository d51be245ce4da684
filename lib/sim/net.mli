(** Message-passing network on top of the event engine.

    Provides point-to-point delivery with topology-derived delay plus optional
    jitter, full traffic accounting (the raw material of the paper's overhead
    figures), and failure injection: link or node partitions (symmetric or
    one-way) that silently drop messages until healed, per-message loss and
    duplication, and delay/bandwidth degradation — the primitives behind the
    nemesis fault-schedule DSL (doc/FAULTS.md). *)

type t

type stats = {
  messages : int;
  bytes : int;
  dropped : int;  (** total messages lost, [dropped_loss + dropped_cut] *)
  dropped_loss : int;  (** dropped by the loss knobs (global or per-link) *)
  dropped_cut : int;  (** dropped because the directed link was partitioned *)
  max_message : int;
      (** largest single message sent (bytes) — a proxy for the peak frame
          size of batched anti-entropy.  Tracked globally only; reads 0 from
          {!traffic_where}. *)
}

val create :
  Engine.t ->
  Topology.t ->
  ?jitter:(Tact_util.Prng.t * float) ->
  ?loss:(Tact_util.Prng.t * float) ->
  ?queued:bool ->
  unit ->
  t
(** [jitter = (rng, frac)] adds a uniform [0, frac * delay) random extra
    delay to every message.  [loss = (rng, rate)] drops each message
    independently with probability [rate] — the protocol layers must (and do)
    tolerate this via acknowledgement-driven retransmission and retry
    rounds.  [queued] (default false) models each directed link as a FIFO
    with finite bandwidth: a message must wait for the link to finish
    serialising earlier ones, so bursts experience queueing delay instead of
    transmitting in parallel. *)

val send : t -> src:int -> dst:int -> size:int -> (unit -> unit) -> unit
(** Deliver [deliver] at the destination after the link delay.  Messages on
    the same link are NOT ordered (models independent datagrams / parallel
    connections); protocol layers must tolerate reordering.  Dropped silently
    if the pair is partitioned at send time. *)

val partition : t -> int list -> int list -> unit
(** Cut all links between the two node groups (both directions). *)

val partition_oneway : t -> int list -> int list -> unit
(** Cut only the [a -> b] direction for every [a] in the first group and [b]
    in the second: [b]'s messages still reach [a].  Models asymmetric
    wide-area failures (e.g. a broken return path). *)

val heal_between : t -> int list -> int list -> unit
(** Remove any cut (either direction, however installed) between the two
    groups, leaving other partitions in place. *)

val heal : t -> unit
(** Remove all partitions ([heal_between] over all node pairs). *)

val partitioned : t -> int -> int -> bool

val set_loss : t -> (Tact_util.Prng.t * float) option -> unit
(** Replace the global loss knob at runtime ([None] disables it). *)

val set_link_loss : t -> src:int -> dst:int -> (Tact_util.Prng.t * float) option -> unit
(** Per-directed-link loss rate, drawn independently of the global knob.  A
    message is dropped if either knob fires; both rng streams advance exactly
    once per message so schedules stay deterministic. *)

val set_duplication : t -> (Tact_util.Prng.t * float) option -> unit
(** With probability [rate], deliver each (non-dropped) message a second
    time, strictly later than the original copy.  Protocol layers must be
    idempotent under duplication. *)

val set_delay_factor : t -> float -> unit
(** Scale every subsequent message's delay by the factor (delay spike when
    > 1).  Factor 1.0 restores the exact original timing. *)

val set_bandwidth_factor : t -> float -> unit
(** Scale the topology bandwidth seen by subsequent messages (squeeze when
    < 1).  Factor 1.0 restores the exact original timing. *)

val stats : t -> stats

val traffic_where : t -> (src:int -> dst:int -> bool) -> stats
(** Aggregate traffic over the directed links matching the predicate — e.g.
    split WAN from LAN bytes in a clustered topology.  Per-link [dropped] is
    the total for that link; the loss/cut split is only tracked globally, so
    [dropped_loss]/[dropped_cut] read 0 here. *)

val reset_stats : t -> unit
