(** A real-time event loop: the wall-clock twin of {!Tact_sim.Engine}.

    One timer heap (the engine's {!Tact_util.Heap}, ordered by due time and
    then scheduling order) plus [Unix.select] over registered file
    descriptors, single-threaded by construction — handlers never race,
    which is the same execution model the deterministic engine gives the
    protocol code.  The {!Tact_store.Transport.endpoint} a live replica
    runs against is built from {!now}/{!schedule}/{!every} here plus a
    {!Tcp} backend.

    Time is the host's wall clock, shared by every loop on the host: live
    replicas compare each other's covers and write timestamps, so two
    daemons started apart must not run on offset clocks.  Across hosts the
    deployed ST bound needs loosely synchronised clocks, as the paper
    assumes. *)

type t

val create : unit -> t

val now : t -> float
(** Wall-clock seconds ([Unix.gettimeofday]). *)

val schedule : t -> tag:string -> delay:float -> (unit -> unit) -> unit
(** One-shot timer ([tag] is provenance for diagnostics).  Timers with equal
    deadlines fire in scheduling order. *)

val every : t -> tag:string -> period:float -> (unit -> bool) -> unit
(** Periodic timer; rearms while the thunk returns [true] and the loop is
    not stopping. *)

val on_readable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Register (or replace) the readable-interest callback for a descriptor. *)

val on_writable : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Register write interest — typically while a connect or a flush is in
    progress; clear it with {!clear_writable} when the queue drains. *)

val clear_writable : t -> Unix.file_descr -> unit

val forget : t -> Unix.file_descr -> unit
(** Drop every watch on the descriptor (call before closing it). *)

val defer : t -> (unit -> unit) -> unit
(** Run a callback at the top of the next iteration — the signal-safe
    hand-off point (a signal handler only pushes here / flips flags). *)

val stop : t -> unit
(** Ask {!run} to return after the current iteration. *)

val stopping : t -> bool

val run_once : ?max_wait:float -> t -> bool
(** One iteration: run deferred callbacks and due timers, then select (up to
    [max_wait], default 0.25 s).  Returns [false] when nothing is left to
    wait for.  Handler exceptions propagate — the caller owns crash
    policy. *)

val run : t -> unit
(** Iterate until {!stop} or nothing left to do. *)
