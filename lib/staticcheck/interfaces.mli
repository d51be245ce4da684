(** Parse failures (SA001) and dead exported API (SA004) over the parsed
    sources and their [.mli] interfaces.

    [run graph] reports every [.ml] or [.mli] in [graph] that does not
    parse as SA001 on its own path, and flags every value exported by a
    module in [graph] that no *other* module in [graph]'s universe
    references.  Build the graph over
    the whole universe (lib, bin, bench, test, examples and perfbench) so
    test-only and benchmark-only consumers keep an export alive; the
    caller keeps the findings on the directories it judges.  Uses through
    an [open] or a [module A = M] alias count as exact references
    ({!Summary} chases them).  A module that receives a bare module
    reference from elsewhere — an [include], a functor argument, a
    first-class module — is skipped: those can use any export without
    naming it. *)

val run : Graph.t -> Report.finding list
