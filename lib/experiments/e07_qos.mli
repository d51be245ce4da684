(** E7 — QoS load balancing for replicated web servers: routing quality vs
    numerical-error bound on the per-server load conits.

    Expected shape: with a tight bound, load views are accurate — few
    misroutes and low imbalance at high dissemination traffic; loosening the
    bound trades routing quality for traffic. *)

val run : ?quick:bool -> unit -> string
