(** Nemesis against live processes: the fault DSL at the real network seam.

    A live process is one {!Fault.target}: the links of the
    {!Tact_transport.Faulty} decorator its {!Tact_transport.Serve} sends
    through, and its own replica.  {!Fault.apply} programs it exactly as it
    programs a simulator shard, and the decorator asks the same
    {!Tact_sim.Links.fate} per message as {!Tact_sim.Net}, so one
    {!Fault.schedule} JSON drives both worlds with the same knob semantics.
    Message timing and the interleaving of real sockets are not replayed:
    the same schedule disturbs a live run the same way, but the run itself
    is not reproduced.

    A schedule is written for the whole system; every process installs it
    verbatim.  Each one drops only what it sends, and crashes and recovers
    only its own replica, which together reproduce the simulator's
    drop-at-the-directed-link-at-send-time semantics. *)

val target : Tact_transport.Serve.t -> Fault.target
(** The process's target.  Ids are the system's, unprojected.  A
    [Link_loss] salt is used as given, so a link's loss stream is the one
    an unsharded simulation draws; global loss and duplication add the
    process id, so each process's outgoing stream is independent,
    deterministically.  Events publish through {!Tact_replica.Replica.emit}. *)

val install : Tact_transport.Serve.t -> Fault.schedule -> unit
(** {!Fault.arm} the process's target on its event loop, each step at its
    offset from now — same contract as {!Fault.install}, so each step
    publishes a {!Tact_store.Event.Fault} into the replica's event sink as
    it fires. *)
