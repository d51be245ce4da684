(** Message-passing network on top of the event engine.

    Provides point-to-point delivery with topology-derived delay plus optional
    jitter, full traffic accounting (the raw material of the paper's overhead
    figures), and failure injection through its {!Links.t}: partitions
    (symmetric or one-way) that silently drop messages until healed,
    per-message loss and duplication, and delay/bandwidth degradation — the
    substrate of the nemesis fault-schedule DSL (doc/FAULTS.md). *)

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
  unit ->
  t
(** [jitter = (rng, frac)] adds a uniform [0, frac * delay) random extra
    delay to every message.  [loss = (rng, rate)] installs the global loss
    knob ({!Links.set_loss}): each message is dropped independently with
    probability [rate] — the protocol layers must (and do) tolerate this via
    acknowledgement-driven retransmission and retry rounds. *)

val links : t -> Links.t
(** The link-fault state every {!send} consults; fault schedules program
    the network through it. *)

val send : t -> src:int -> dst:int -> size:int -> (unit -> unit) -> unit
(** Ask {!Links.fate} once, then deliver [deliver] at the destination after
    the link delay (stretched by the delay and bandwidth factors, plus
    jitter), twice when the duplication knob fires: the copy after
    [delay * (1 + x)] for the fate's [x].  Messages on the same link are NOT
    ordered (models independent datagrams / parallel connections); protocol
    layers must tolerate reordering.  A cut or lost message is dropped
    silently and counted. *)

val stats : t -> stats

val traffic_where : t -> (src:int -> dst:int -> bool) -> stats
(** Aggregate traffic over the directed links matching the predicate — e.g.
    split WAN from LAN bytes in a clustered topology.  Per-link [dropped] is
    the total for that link; the loss/cut split is only tracked globally, so
    [dropped_loss]/[dropped_cut] read 0 here. *)

val reset_stats : t -> unit
