(** Closed-form cost predictions for the consistency protocols: the test
    reference that [test/test_analytic.ml] holds the simulator against.  No
    experiment reads them.

    These are first-order models: they predict the compulsory protocol
    traffic from the workload and the bounds, ignoring batching windfalls
    (one push can carry several writes) and retries.  The tests compare
    simulation against them to confirm the scaling structure, not the exact
    constant. *)

val even_share : bound:float -> n:int -> float
(** A writer's slice of one receiver's NE budget under the even split. *)

val pushes_per_write : bound:float -> n:int -> weight:float -> float
(** Expected budget-forced pushes per write for a single writer under the
    even split: each peer must be pushed to every [share/weight] writes, so
    the rate is [(n-1) * weight / share] pushes per write, capped at [n-1]
    (the eager ceiling, reached when a single write overflows the share). *)

val pull_round_msgs : n:int -> int
(** Messages in one complete pull round: a request and a reply per peer. *)

val pull_read_latency : n:int -> one_way:float -> float
(** Time for a pull round to complete (the slowest peer's round trip);
    homogeneous latency means one RTT. *)

val conflict_probability : rel_ne:float -> float
(** Section 4.1: a reservation aimed at a uniformly random observed-free seat
    conflicts with an unseen reservation with probability equal to the
    relative numerical error (clamped to [0, 1]). *)
