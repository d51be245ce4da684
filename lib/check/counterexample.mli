(** Shrunk, replayable counterexamples — one file format for the
    interleaving checker and the fault fuzzer.

    A counterexample names where its plan comes from ({!kind}: a catalogue
    scenario, or the seed of a sampled plan), the rest of the run
    ({!Runner.spec}: deviations, fault schedule, planted bug), and what the
    run produced: its violations and final-state fingerprint.  Runs are pure
    functions of these, so replay is exact.

    The JSON file (doc/CHECKING.md) is version 2: [version], [kind]
    (["scenario"] with [scenario], or ["sampled"] with [seed]), [mutation],
    [deviations], [quiet_after] and [events] when the run has a fault
    schedule, [violations] and [final_fingerprint].  Version 1 files written
    by either tool before the formats merged load too. *)

type kind = Scenario of string | Sampled of int

type t = {
  kind : kind;
  mutation : Tact_replica.Mutation.t;
  deviations : (int * int) list;
  faults : Fault.schedule option;
  violations : string list;
  final_fp : Fingerprint.t;
}

val of_failure : kind -> Runner.spec -> t
(** Minimize a failing run and record the minimized run.  One greedy
    shrinker (delta debugging to a local minimum: drop any single element
    whose removal still violates) runs over the deviations, then over the
    fault events; last, [quiet_after] is pulled in to just after the last
    surviving event if the violation persists.  A run that does not violate
    is recorded as it is. *)

val to_json : t -> Tact_util.Json.t
val of_json : Tact_util.Json.t -> (t, string) result
val save : path:string -> t -> unit

val load : path:string -> (t * Sample.plan, string) result
(** Parse a file and resolve its plan.  An unknown scenario name, a
    version-2 file missing a field, a scenario file carrying a fault
    schedule, a sampled file without one, or a fault schedule that
    {!Fault.validate} rejects for the plan's replica count is an [Error]. *)

type replay_verdict = {
  result : Runner.result;
  reproduced : bool;  (** the replay violated *)
  fingerprint_match : bool;  (** final state identical to the recorded one *)
  ok : bool;
      (** the replay rule: the fingerprint matches, and violations reappear
          exactly when the file recorded some *)
}

val replay : ?sanitize:bool -> Sample.plan -> t -> replay_verdict
(** Re-execute the run on the given plan; [sanitize] (default true) runs it
    under the runtime invariant sanitizer. *)

val replay_file : path:string -> (string list * bool, string) result
(** {!load} then {!replay}: the report lines and the rule's verdict — what
    both CLIs' [replay] subcommands print. *)
