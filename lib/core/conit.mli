(** Conit declarations.

    A conit is logically a function from database state to a real number
    (Section 3.2), but applications never write that function down: under the
    weight-specification discipline of Section 3.4, a conit's value is the
    accumulated numerical weight of the writes affecting it, and the conit
    itself is identified by a symbolic name (e.g. ["AllMsg"],
    ["MsgFromFriends"]).

    A declaration optionally fixes the {e system-wide} numerical-error bound
    that the proactive push protocol maintains for the conit.  Per-access NE
    requirements no looser than the declared bound are then satisfied without
    blocking; tighter one-off requirements trigger an on-demand pull.

    Declared order-error and staleness bounds record the application's
    standing OE/ST requirements on the conit.  Enforcement of those two
    metrics is reactive (commit-driving pulls at access time), so the
    declared values do not change protocol behaviour; they are validated by
    {!Tact_replica.Config.validate} and audited by the static analyzer,
    which checks them against the anti-entropy schedule and topology. *)

type t = {
  name : string;
  ne_bound : float;  (** system-wide absolute NE maintained by pushes *)
  ne_rel_bound : float;  (** system-wide relative NE maintained by pushes *)
  oe_bound : float;  (** standing order-error requirement (analyzed, not pushed) *)
  st_bound : float;  (** standing staleness requirement (analyzed, not pushed) *)
  initial_value : float;
      (** the conit's value over the initial database (e.g. seats initially
          available on a flight); accumulated write weights are offsets from
          this base.  Only relative error depends on it. *)
}

val declare :
  ?ne_bound:float ->
  ?ne_rel_bound:float ->
  ?oe_bound:float ->
  ?st_bound:float ->
  ?initial_value:float ->
  string ->
  t
(** Unspecified bounds are unconstrained; [initial_value] defaults to 0. *)

val unconstrained : string -> t

val is_unconstrained : t -> bool
(** True when every declared bound is infinite — the declaration names the
    conit but promises nothing. *)

val malformed : t -> bool
(** True when a bound is negative or NaN (NaN compares false against
    everything, so it would silently disable the bound's checks) or the
    initial value is NaN.  Shared by [Config.validate], which rejects such
    a declaration, and the static analyzer's TA001. *)
