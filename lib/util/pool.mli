(** Fixed-size domain pool over one shared task stack.

    [create ~jobs] runs tasks on [jobs] domains, the calling one included:
    it spawns [jobs - 1] workers that share a single stack of pending tasks
    under one lock; tasks submitted from inside and outside the pool land on
    the same stack.  Workers pop the newest task, so a task's children run
    before older work (depth-first); a caller helping inside {!await} or
    {!await_idle} pops the oldest.

    Exceptions never vanish: a task's exception is captured with its
    backtrace and re-raised at {!await} (for futures) or at the next
    {!await_idle}/{!shutdown} (for fire-and-forget posts).

    The pool is a throughput device, not a synchronisation device: tasks
    must not block on each other except through {!await}, which helps — it
    runs queued tasks while the future is unresolved, so a task may await
    work it submitted without deadlocking the worker it occupies. *)

type t

type 'a future

val create : jobs:int -> t
(** A pool of [max 1 jobs] domains: spawn [max 1 jobs - 1] workers, and
    count the calling domain as the last one, which executes tasks while
    inside {!await} or {!await_idle}.  At [jobs <= 1] nothing is spawned and
    every task runs in the caller, oldest first, when it awaits. *)

val size : t -> int
(** Number of domains the pool runs tasks on, the caller included:
    [max 1 jobs]. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Queue a task; its result (or exception) is delivered through the
    future.  Raises [Invalid_argument] after {!shutdown}. *)

val post : t -> (unit -> unit) -> unit
(** Fire-and-forget [submit].  The first exception raised by any posted
    task is re-raised by the next {!await_idle} or {!shutdown}. *)

val await : t -> 'a future -> 'a
(** Block until the future resolves, executing queued tasks in the
    meantime; re-raises the task's exception with its backtrace. *)

val await_idle : t -> unit
(** Block until every submitted task has completed (including tasks they
    submitted), helping in the meantime; then re-raise the first pending
    {!post} exception, if any. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list t f xs] runs [f] on every element concurrently and returns
    the results in input order.  On failures, the exception of the
    earliest failing {e element} (input order, not wall-clock order) is
    re-raised — deterministic even though execution is not. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** {!map_list} over arrays: run [f] on every element concurrently, results
    in input order, earliest failing element's exception re-raised. *)

val shutdown : t -> unit
(** Wait for quiescence, stop and join the workers, then re-raise any
    pending {!post} exception.  Must be called from outside the pool (a
    task must not shut down its own pool).  Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run the body, [shutdown] — also on exceptions. *)

val recommended_jobs : ?cap:int -> unit -> int
(** A sensible pool size for this host: the runtime's recommended domain
    count (the cores this process may use, the caller's among them),
    clamped to [\[1, cap\]].  The sanctioned way for upper layers to size
    a pool without touching [Domain] directly. *)

val oversubscription : jobs:int -> string option
(** A one-line warning when a [jobs]-domain pool exceeds the runtime's
    recommended domain count (the cores this process may use): past that,
    domains time-share cores and a run only gets slower.  [None] otherwise. *)
