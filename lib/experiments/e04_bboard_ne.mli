(** E4 — bulletin board: propagation overhead vs absolute numerical error
    bound (the cited TACT evaluation's bandwidth/NE tradeoff).

    Sweeps the declared absolute NE bound of the ["AllMsg"] conit with
    background gossip disabled, so all traffic is compulsory protocol traffic.
    Expected shape: messages, bytes and write latency fall monotonically as
    the bound loosens, while the reader-observed numerical error grows up to
    (but never beyond) the bound. *)

val run : ?quick:bool -> unit -> string
