(** The determinism and source-hygiene pass: polymorphic compare,
    wall-clock reads, unseeded Random, Obj.magic, float equality, and the
    annotated hygiene rules (Hashtbl order, naked [failwith], hot-path
    allocation).

    Because references arrive pre-resolved from {!Summary}, a local
    [let compare] or a shadowed [Random] no longer trips the rules, while
    [module S = Stdlib ... S.compare] does.

    This pass names no clock or random path itself: SA041 fires on every
    external reference {!Effects.classify} reads as [wall], SA042 on every
    one it reads as [random] (so [Random.State.make_self_init] counts and
    a seeded [Random.State] does not), and SA045 on [hashtbl].

    [SA040]–[SA043] and [SA045]–[SA048] fire under [lib/] only; [SA041]
    skips the real-time [lib/transport]; [SA044] (exact float equality)
    fires on the metrics/bounds paths [lib/core], [lib/replica],
    [lib/protocols] and [lib/check]; [SA047] on the wire hot paths
    [lib/store] and [lib/sim].

    The hygiene rules are suppressed by a {!Loader.allow} annotation naming
    their key: [hashtbl-<fn>] for SA045 ({!Effects.hashtbl_key}),
    [naked-failwith] for SA046, [alloc-hot-path] for SA047.  SA048 reports
    an annotation that does not parse or names a key that suppresses
    nothing on the lines it covers. *)

val run : Effects.rules -> Summary.t list -> Report.finding list
(** [run rules sums] with [rules] the parsed [analysis/effects.rules]. *)
