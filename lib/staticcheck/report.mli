(** Findings, the SA0xx rule catalogue, and output formats.

    Every pass reports {!finding} values.  A finding's {!key} is stable
    across unrelated edits — rule id, file, and a context token (enclosing
    top-level definition plus the offending symbol), but no line numbers —
    so the checked-in baseline survives code motion.  Renderers: plain text,
    JSON, and SARIF 2.1.0 (for CI artifact upload and code-scanning UIs). *)

type severity = Error | Warning | Info

type rule = {
  id : string;  (** stable "SAxxx" identifier *)
  title : string;  (** short name, kebab-case *)
  advice : string;  (** one-line explanation / fix hint *)
  severity : severity;
}

val rules : rule list
(** The full catalogue, sorted by id.  [doc/ANALYSIS.md] mirrors it. *)

val rule : string -> rule
(** Look up by id.  Raises [Invalid_argument] on an unknown id. *)

type finding = {
  f_rule : rule;
  f_path : string;  (** repo-relative, '/'-separated *)
  f_line : int;  (** 1-based *)
  f_col : int;  (** 0-based, as in compiler locations *)
  f_context : string;  (** stable context token, e.g. ["run_one:Sys.time"] *)
  f_message : string;
}

val finding :
  rule_id:string ->
  path:string ->
  loc:Location.t ->
  context:string ->
  string ->
  finding
(** Build a finding from a compiler location (its start position). *)

val key : finding -> string
(** ["SAxxx path context"] — the baseline identity of the finding. *)

val dedup : finding list -> finding list
(** Sort and drop findings with identical keys {e and} positions. *)

val to_text : finding -> string
(** ["path:line:col: [SAxxx title] message\n  advice"]. *)

val json_of : baselined:(finding -> bool) -> finding list -> string
(** All findings as a JSON array; each object carries a ["baselined"] flag. *)

val sarif_of : baselined:(finding -> bool) -> finding list -> string
(** SARIF 2.1.0 log: one run, the rule catalogue under
    [tool.driver.rules], one result per finding with a [baselineState] of
    ["unchanged"] (baselined) or ["new"]. *)
