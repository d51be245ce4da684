(** E5 — bulletin board: read latency vs order-error bound (the cost of write
    commitment).

    Readers require ["AllMsg"] order error below the swept bound; a tight
    bound forces the stability commitment protocol to run before a read can
    be served.  Expected shape: read latency (and OE-driven sync traffic)
    falls as the bound loosens, reaching local-read latency once the bound
    exceeds the typical tentative backlog. *)

val run : ?quick:bool -> unit -> string
