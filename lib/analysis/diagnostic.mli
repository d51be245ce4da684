(** Structured diagnostics emitted by the conit-spec analyzer.

    Every diagnostic carries a stable code ([TA001]...), a severity, the
    subject it is about (usually a conit name), a message describing what is
    wrong and a hint describing how to fix it.  Errors mean the declared
    specification cannot work as written (enforcement degenerates or state is
    rejected at runtime); warnings mean it works but degenerates into
    synchronous rounds or wasted maintenance; infos are observations.
    [doc/ANALYSIS.md] lists every code. *)

type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  subject : string;  (** conit name, policy, or "" for whole-config findings *)
  message : string;
  hint : string;
}

val make :
  code:string ->
  severity:severity ->
  subject:string ->
  message:string ->
  hint:string ->
  t

val sort : t list -> t list
(** Errors first, then by code, then by subject. *)

val to_string : t -> string
(** ["TA003 error [conit]: message (hint: ...)"]. *)
