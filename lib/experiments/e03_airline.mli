(** E3 — airline reservations: conflict rate vs relative numerical error
    (Section 4.1).

    Sweeps the declared relative NE bound of the per-flight seat conits and
    reports, for each point, the measured conflict rate of committed
    reservations, the measured mean relative NE at reservation time, and the
    paper's analytic prediction (conflict probability = relative NE for
    uniformly random seat choice).  The expected shape: conflict rate falls
    monotonically as the bound tightens and tracks the measured relative NE
    (the paper reports the formula "verified through experiments"). *)

val run : ?quick:bool -> unit -> string
