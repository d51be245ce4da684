(** Execute one run and judge it with the oracles.

    A run is described by four things ({!spec}): its plan, its scheduler
    deviations, its fault schedule and its planted bug.  It is a pure
    function of them — the system is built from the plan's seed, loss-free
    at the {!Tact_replica.System} level (loss is injected only through
    fault events), and every stochastic fault knob is self-seeded.

    A plan with a choice phase ({!Sample.plan.choice_until}) runs in two
    phases: up to the end of the choice phase every dispatch is recorded as
    a {!step}, and the deviation map [(step, seq) list] says "at step
    [step], fire the pending event with engine sequence number [seq]"; every
    unnamed step fires the default — earliest (time, seq) — choice.  The run
    then drains under default order.  A plan without one installs no chooser
    and takes no per-step fingerprint; its deviations are ignored. *)

type spec = {
  plan : Sample.plan;
  deviations : (int * int) list;
  faults : Fault.schedule option;
      (** installed with its quiescent tail ({!Fault.install}) when present *)
  mutation : Tact_replica.Mutation.t;
      (** planted bug ([Off] for real runs, {!Tact_replica.Mutation}) *)
}

val spec : ?faults:Fault.schedule -> ?mutation:Tact_replica.Mutation.t -> Sample.plan -> spec
(** No deviations; [faults] default none, [mutation] default [Off]. *)

type step = {
  ready : Tact_sim.Engine.choice array;
      (** pending events at this step, sorted by (time, seq); index 0 is the
          default choice *)
  chosen : int;  (** index fired *)
  fp : Fingerprint.t;  (** state fingerprint immediately before the dispatch *)
}

type result = {
  steps : step array;  (** the choice-phase dispatches, in order *)
  sys : Tact_replica.System.t;  (** the quiesced system, for inspection *)
  violations : string list;  (** oracle verdict; empty = passed *)
  final_fp : Fingerprint.t;  (** fingerprint of the quiesced state *)
  diverged : int;
      (** deviations naming a sequence number that was not pending — nonzero
          only when replaying edited traces *)
  timeouts : int;  (** client operations that timed out *)
}

val run : ?sanitize:bool -> spec -> result
(** [sanitize] (default false) turns on {!Tact_util.Sanitize} runtime
    invariant auditing for the duration of the run. *)
