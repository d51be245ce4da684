(** Omniscient, after-the-fact verification that every served access respected
    its declared (NE, OE, ST) bounds — the correctness oracle behind the
    integration and property tests.

    For each access record and each conit it depends on, the checker
    recomputes the true metrics against the reference history:

    - the {e observed prefix} is the set of writes covered by the replica's
      version vector at service time;
    - the {e actual prefix} is the most permissive prefix every ECG history
      must contain: writes that returned to their users before the access was
      submitted (external order) plus the observed ones (causal order) —
      see {!Tact_core.Ecg.actual_prefix};
    - NE is the absolute difference of accumulated numerical weights between
      the two prefixes, relative NE divides by the actual value offset by the
      conit's declared initial value;
    - OE is checked in both readings: the enforcement reading (tentative
      oweight at service) always, the definitional LCP reading optionally
      (it is guaranteed only under stability commitment);
    - ST is the age, at submission, of the oldest write affecting the conit
      that had returned before submission but was not observed. *)

type computed = {
  conit : string;
  ne : float;
  ne_rel : float;
  oe_tentative : float;
  oe_lcp : float;
  st : float;
}

type violation = {
  access : Tact_core.Access.t;
  metrics : computed;
  dimension : string;  (** which bound failed: "ne" | "ne_rel" | "oe" | "st" | "oe_lcp" *)
  bound : float;
}

val access_metrics : System.t -> Tact_core.Access.t -> computed list
(** The true metrics of each conit the access depends on. *)

val metrics : System.t -> Tact_core.Access.t -> computed list
(** [metrics sys] is {!access_metrics}[ sys] with the reference history
    gathered and sorted once, for checking many accesses of one finished
    run: apply it to [sys] once, then to each access. *)

val check : ?lcp:bool -> ?eps:float -> System.t -> violation list
(** Verify every recorded access.  [lcp] additionally checks the definitional
    order-error reading against the OE bound (sound under stability
    commitment; default false).  [eps] absorbs floating-point noise
    (default 1e-9). *)

val summarize : violation list -> string
