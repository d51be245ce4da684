(** Numerical-error budget allocation.

    The absolute numerical-error bounding algorithm (Section 5, following the
    authors' VLDB 2000 protocols) is sender-driven: the system-wide bound
    [B_c] of a conit at each receiver is split into per-writer shares, and a
    writer must push its unacknowledged writes to a receiver before letting
    its outstanding (unacked) weight for that receiver exceed its share.  The
    sum of shares never exceeds the bound, so the receiver's true numerical
    error is bounded without it ever being measured.

    How the bound is split is a policy choice and an ablation axis (E11):

    - {!Even} — each of the other [n-1] replicas gets an equal share.  Always
      safe; wasteful when write rates are skewed (a hot writer exhausts its
      small share and pushes constantly while idle writers' shares sit
      unused).
    - [Proportional rates] — static split proportional to a known write-rate
      vector.
    - {!Adaptive} — like proportional, but over write rates learned at run
      time (each replica gossips an exponentially weighted moving average of
      its own write rate).  Writers may transiently disagree on the rate
      vector, so the invariant can be transiently exceeded by a small factor;
      E11 measures both the traffic saved and the achieved error. *)

type policy = Even | Proportional of float array | Adaptive

val share :
  policy -> bound:float -> n:int -> self:int -> receiver:int -> rates:float array -> float
(** The slice of [receiver]'s bound that writer [self] may consume.
    [rates.(j)] is the (believed) write rate of replica [j]; it is ignored by
    {!Even}.  Zero-rate corner cases fall back to the even split. *)

val malformed : n:int -> policy -> bool
(** A [Proportional] rate vector that cannot split bounds among [n]
    replicas: its length is not [n], a rate is negative or NaN, or (for
    [n > 1]) every rate is zero.  [Even] and [Adaptive] are never
    malformed.  Shared by [Config.validate], which rejects such a policy,
    and the static analyzer's TA003. *)

val policy_name : policy -> string
