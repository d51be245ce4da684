(** Nemesis against live processes: interpret the fault DSL at the real
    network seam instead of the simulator.

    {!Fault.apply} programs {!Tact_sim.Net}; this module programs the
    {!Tact_transport.Faulty} decorator a {!Tact_transport.Serve} process
    sends through.  The same {!Fault.schedule} JSON drives both, so a
    counterexample found in simulation replays byte-for-byte against real
    sockets (and the CI serve-smoke job does exactly that).

    A schedule is written for the whole system; every process installs it
    verbatim and applies only its own projection — its outgoing links, its
    own crash/recover — which together reproduce the simulator's
    drop-at-the-directed-link-at-send-time semantics. *)

val apply : Tact_transport.Serve.t -> Fault.action -> unit
(** Apply this process's projection of one action immediately.
    [Bandwidth_factor] has no live analog (the kernel owns the pipe) and is
    a no-op, so simulator schedules still install.  Stochastic knobs offset
    their salt by the process id: each replica's outgoing stream is
    independent, deterministically. *)

val clear_all : Tact_transport.Serve.t -> unit
(** Lift every disturbance on this process: heal the decorator, recover the
    replica. *)

val install : Tact_transport.Serve.t -> Fault.schedule -> unit
(** Schedule every event on the process's event loop, plus the quiescent
    tail ({!clear_all}) at [quiet_after] — same contract as
    {!Fault.install}.  Each one publishes a {!Tact_store.Event.Fault} into
    the replica's event sink ({!Tact_replica.Replica.emit}) as it fires. *)
