(** Per-replica write log (Section 2 of the paper).

    The log holds every write applied to the replica's database image, split
    into a {e committed} prefix — totally ordered, never reordered again — and
    a {e tentative} suffix kept in the canonical timestamp order
    [(accept_time, origin, seq)] and subject to rollback and reapplication
    when writes arrive out of order.  One database image is kept: the
    committed prefix plus the applied part of the suffix, which is what reads
    observe.  The committed image is that image with the applied writes'
    undo journals reverted; {!committed_db} and {!snapshot} build it on a
    copy.

    Tentative writes are applied to the image when it is read, not when they
    arrive: {!db}, {!outcome}, {!accept} and {!insert} first apply whatever
    the suffix holds that is not yet applied, while {!insert_batch} only
    places writes.  Only the applied part of the suffix carries undo
    journals and tentative outcomes, so a replica whose clients never read
    pays for neither, and committing such a write is its one application.

    The log also maintains, incrementally, the quantities the conit metrics
    are built from: per-conit observed value (accumulated nweights of all
    known writes — the weight-specification reading of a conit's value,
    Section 3.4), per-conit tentative oweight (the replica's order error)
    and per-conit committed value.  The three live in one flat record per
    conit, so registering or committing a write costs one table lookup per
    conit it affects and allocates nothing.

    Each per-write job has one mechanism: one cell per (origin, seq), in
    flat per-origin columns, holds a write's residency, its latest outcome
    (a float stored unboxed) and its final and commit flags, and the same
    write column serves {!writes_since} as a merge over its tails.  The
    committed prefix is one int deque of packed [(origin, seq)] ids, so
    truncation reads only flat memory.

    Out-of-order arrival {e within one origin's sequence} (possible only under
    message loss plus reordering) is absorbed by a pending buffer, so the
    version vector always describes a contiguous per-origin prefix. *)

type t

type insertion =
  | Inserted of Op.outcome  (** applied tentatively; outcome of this application *)
  | Duplicate  (** already known *)
  | Buffered  (** a per-origin sequence gap; parked until the gap fills *)

val create : replicas:int -> initial:(string * Value.t) list -> t
(** Equivalent to {!create_bounded} with no write procedures and
    [bounded:false] — full history retention. *)

val create_bounded :
  procs:Op.procs ->
  bounded:bool ->
  replicas:int ->
  initial:(string * Value.t) list ->
  t
(** [procs]: the write procedures that {!Op.Named} ops resolve against,
    every time the log applies a write (tentatively or at commit).

    [bounded]: bound memory by the truncation horizon instead of by history,
    for long runs.  Two things change.  The append-only commit journal that
    observation capture ({!commit_cursor}) relies on is not kept — it grows
    with every commit, forever — so {!commit_cursor} raises
    [Invalid_argument].  And {!truncate} (and snapshot installation) also
    empties the truncated writes' per-write state (outcome, final and
    committed flags); no code path consults it for truncated writes, and
    the visible cost is {!final_outcome} returning [None] for them. *)

val accept : t -> Write.t -> Op.outcome
(** Insert a locally originated write and apply the suffix up to it,
    returning its tentative outcome.  Must be the next sequence number for
    its origin and must not precede any known write in timestamp order. *)

val insert : t -> Write.t -> insertion
(** Insert one remote write, rolling back the applied suffix if it lands in
    the middle, then apply the suffix so its outcome can be returned. *)

val insert_batch : t -> Write.t list -> Write.t list
(** Insert many writes without applying any: writes landing below the
    applied part of the suffix revert it down to the lowest landing point
    (at most one rollback), and re-execution waits for the next read.
    Returns the writes that were actually new to this replica (including any
    pending-buffer entries the batch released), in timestamp order.  A batch
    already in timestamp order — every batch {!writes_since} builds — is
    checked in one pass and not sorted, and neither is the result unless
    released pending writes interleave with the batch. *)

val vector : t -> Version_vector.t
(** The live vector of known writes (do not mutate). *)

val known : t -> Write.id -> bool

val writes_since : t -> Version_vector.t -> Write.t list
(** Every known write not covered by the given vector (anti-entropy payload),
    in timestamp order. *)

val db : t -> Db.t
(** Full view: committed prefix plus tentative suffix applied.  Applies the
    unapplied part of the suffix first, journalling each write.  The image
    is the log's own: a held reference sees later arrivals only after the
    next call. *)

val committed_db : t -> Db.t
(** The committed image, as a private copy: the image with the applied
    suffix's journals reverted on the copy.  O(image); the log's own image
    and its applied suffix are left as they are. *)

val tentative : t -> Write.t list
(** The tentative suffix, in timestamp order. *)

val tentative_ids : t -> Write.id list
(** Ids of the tentative suffix, in timestamp order — O(suffix), which is
    bounded by the commit lag, not by history. *)

val iter_tentative : t -> (Write.t -> unit) -> unit
(** Iterate the tentative suffix in timestamp order without materialising a
    list. *)

val committed : t -> Write.t list
(** The committed prefix, in commit order. *)

val committed_count : t -> int
val num_known : t -> int

val commit_stable : t -> cover:float array -> int
(** Stability commitment: [cover.(o)] promises that every write from origin
    [o] with accept time <= [cover.(o)] is known to this replica.  Commits
    the maximal stable prefix of the tentative suffix — writes that no origin
    can still precede in timestamp order — and returns how many were
    committed.  Commit order equals timestamp order, so the image is
    unaffected: a committed write that was applied was applied over exactly
    the committed image, so its journal is dropped and its tentative outcome
    becomes its final one, and a write never applied is applied once. *)

val commit_ids : t -> Write.id list -> int
(** Commitment in an externally supplied order (the primary-CSN scheme).
    Commits each known, not-yet-committed id in the given order; ids must be
    committed in the same order system-wide.  While the ids arrive in
    suffix order, committing is as under {!commit_stable}.  At the first id
    out of that order the applied suffix is reverted once, the rest commit
    onto the committed image, and the suffix is reapplied at the next read.
    Returns how many were committed. *)

val tentative_oweight : t -> string -> float
(** Order error of a conit at this replica: summed oweight of tentative
    writes affecting it. *)

type tally

val tally : t -> string -> tally
(** A handle on the conit's tallies, created at zero if no write has touched
    the conit yet.  It stays valid for the life of the log
    ({!install_snapshot} resets each tally in place), so a caller resolves a
    conit once and reads {!tally_tent_ow} ({!tentative_oweight}) and
    {!tally_value} ({!conit_value}) without a name lookup. *)

val tally_tent_ow : tally -> float
val tally_value : tally -> float

val tentative_max_oweight : t -> float
(** Max over conits of {!tentative_oweight} — a cheap upper bound used when a
    single commitment decision covers all conits. *)

val conit_value : t -> string -> float
(** Observed conit value: accumulated nweight over all known writes. *)

val committed_conit_value : t -> string -> float

val outcome : t -> Write.id -> Op.outcome option
(** Latest application outcome of a known write, after applying the
    unapplied part of the suffix: its tentative outcome, or its final one
    once it has committed. *)

val final_outcome : t -> Write.id -> Op.outcome option
(** Outcome under the committed order; [None] until the write commits. *)

val rollbacks : t -> int
(** Number of rollback/reapply episodes (a cost metric). *)

(** {2 Observation capture}

    Serving an access must record which writes it observed (for later
    consistency verification) without walking the whole committed prefix,
    or copying the tentative suffix.  The log keeps an append-only journal
    of every commit it has ever made, including the ones truncation or a
    snapshot install later dropped from the retained prefix, so the
    committed part reduces to one journal length captured in O(1) and
    expandable at any later time; the tentative part is a
    {!tentative_view} that shares its cells with the views before it. *)

val commit_cursor : t -> int
(** The current length of the commit journal: the committed history this log
    has made, in commit order.  O(1).  Because the journal is append-only,
    the cursor denotes the same writes forever.  (Writes a snapshot install
    folded in without this log committing them are not journalled; stability
    commitment, the scheme under which the order-error LCP reading is sound,
    never installs snapshots.) *)

val commit_slice : t -> hi:int -> Write.id list
(** Expand a cursor captured earlier by {!commit_cursor} into the ids it
    denotes, in commit order.  [hi] must come from a cursor captured on this
    log. *)

val tentative_view : t -> Write.id list Lazy.t
(** The ids of the tentative suffix now, in timestamp order, as a lazy list
    that stays fixed however the log changes afterwards.  Consecutive views
    share one persistent newest-first id list: a view costs O(Δ) amortised
    time and memory, Δ the writes appended at the tail of the suffix since
    the previous view (a mid-suffix insertion, a reordering commit or a
    snapshot install makes the next view rebuild in O(suffix)).  An unforced
    view of a suffix of n holds at most 2n + 32 id cells; forcing copies its
    n ids once.  Under [TACT_SANITIZE] every view is checked against
    {!tentative_ids}. *)

(** {2 Log truncation and snapshots}

    A long-lived replica cannot retain every committed write.  Truncation
    discards the oldest part of the committed prefix; once writes have been
    discarded, anti-entropy can no longer assemble a diff for a peer that is
    missing them, and must fall back to installing a {e snapshot}: the
    committed database image together with the vector of writes it reflects.
    Because the committed order covers a per-origin prefix of each origin's
    sequence (stability commits in timestamp order; the primary assigns CSNs
    in per-origin FIFO order), the committed prefix is always describable by
    a version vector. *)

type snapshot = {
  snap_db : Db.t;  (** the committed image (a private copy) *)
  snap_vector : Version_vector.t;  (** writes reflected in it *)
  snap_ncommitted : int;
  snap_values : (string * float) list;  (** committed conit values *)
}

val truncate : t -> keep:int -> int
(** Discard all but the newest [keep] committed writes; returns how many were
    discarded.  Discarded writes can no longer be served to peers. *)

val retained : t -> int
(** Committed writes still held in the log. *)

val can_serve : t -> Version_vector.t -> bool
(** Can a write-by-write diff against the given peer vector still be
    assembled, or have needed writes been truncated away? *)

val snapshot : t -> snapshot
(** Capture the current committed state for a full-state transfer; its
    image is built as {!committed_db} builds it. *)

val install_snapshot : t -> snapshot -> bool
(** Replace the committed state with the snapshot's if it is strictly ahead
    (its vector dominates the local committed vector); local writes the
    snapshot already covers are dropped (their final outcomes were computed
    remotely and are not recoverable locally), the rest of the tentative
    suffix is replayed on top at the next read.  Returns false (and does
    nothing) if the local committed state is not behind the snapshot. *)

val committed_vector : t -> Version_vector.t
(** The vector describing the committed prefix (do not mutate). *)

(** {2 Invariant sanitizer}

    The structural invariants the indexed log relies on — tentative suffix in
    strict timestamp order, undo journal no longer than it (as long only
    right after a read), retained committed prefix equal to the most recent
    slice of the commit journal, version-vector coverage and monotonicity,
    weight tallies agreeing with a recount, and the undo journal reverting
    the image exactly to the committed image — can be audited on demand, or
    after every mutation when [TACT_SANITIZE=1] (see {!Tact_util.Sanitize}).
    The committed image the undo round-trip is checked against does not come
    from the journals: a log created under the sanitizer applies every
    commit to a committed image of its own (and checks there that each final
    outcome is reached), and any other log replays its committed prefix
    from the initial bindings, which is possible while nothing has been
    truncated or installed from a snapshot. *)

val invariant_violations : t -> string list
(** Full structural audit; empty when the log is healthy.  O(log size). *)

val sanitize : ?ctx:string -> t -> unit
(** When {!Tact_util.Sanitize.enabled}, run {!invariant_violations} (plus a
    vector-monotonicity check against the previous audit) and raise
    [Tact_util.Sanitize.Violation] with the offending positions.  No-op
    otherwise.  Called internally after every mutating operation. *)

(**/**)

val unsafe_swap_tentative : t -> int -> int -> unit
(** Test-only: corrupt the log by swapping two tentative entries, so tests
    can prove the sanitizer detects real damage.  Never call otherwise. *)
