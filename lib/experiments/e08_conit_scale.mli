(** E8 — Section 5's scalability claim: protocol cost as a function of the
    number of conits.

    A fixed write workload is spread round-robin over a growing conit
    population (each conit declared with the same absolute NE bound).  The
    claim: bookkeeping is created on demand and the commitment/staleness
    machinery is insensitive to conit count, so per-write protocol cost stays
    near-flat as conits grow from 1 to 10^4 — only the weight-specification
    bytes on the wire grow (each write names its conit). *)

val run : ?quick:bool -> unit -> string
