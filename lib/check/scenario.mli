(** Named model-checking scenarios: tiny TACT plans (2-3 replicas, 2 conits,
    a handful of client accesses) whose schedule spaces the explorer can
    exhaust, each exercising one enforcement mechanism.

    A scenario is a {!Sample.plan} with a choice phase up to its horizon,
    jitter- and loss-free with a fixed seed, so an execution is a pure
    function of the scheduler's choices — the property replayable
    counterexamples rest on. *)

type t = { name : string; summary : string; plan : Sample.plan }

val all : t list
(** The named catalogue (6 scenarios). *)

val find : string -> t option
