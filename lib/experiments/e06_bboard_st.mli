(** E6 — bulletin board: overhead and freshness vs staleness bound.

    Readers require ["AllMsg"] staleness below the swept bound; tight bounds
    force compulsory pulls, loose ones are served from whatever gossip
    delivered.  Expected shape: staleness-driven pulls and read latency fall
    as the bound loosens, while the observed numerical error (unseen posts)
    grows. *)

val run : ?quick:bool -> unit -> string
