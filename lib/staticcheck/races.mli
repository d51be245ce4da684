(** The domain-race pass.

    Reads the effect pass's summary of every [Pool.submit]/[Pool.post]/
    [Pool.map_list]/[Pool.map_array] task and flags mutable state that
    parallel tasks can reach without going through the [Sync] wrappers in
    [lib/util/sync.ml]:

    - [SA020] a module-level mutable value (of this module or another
      project module) that the task touches, directly or through anything
      it calls — one [mutates:] atom of {!Effects.task_summary}, reported at
      the pool call with its {!Effects.chain};
    - [SA021] a locally bound mutable value captured by the task closure
      and mutated inside it;
    - [SA030] module-level mutable state as such (the scope-aware
      replacement of the textual [module-state] rule), under [lib/].

    Modules in a [trust]ed directory of the effect rules ([lib/util], the
    sanctioned concurrency boundary) are never flagged, and the effect
    summaries never traverse them. *)

val run : Effects.eff -> Report.finding list
