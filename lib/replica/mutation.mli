(** Planted bugs for harness self-tests.

    The checker, the fuzzer and the shard audit prove they work by catching
    a deliberately broken replica.  A mutation is not part of {!Config.t}:
    only {!Replica.create}, {!System.create} and {!Sharded.create} take
    one, through [?mutation] (default [Off]).  [Tact_transport.Serve.create]
    passes none, so the [tact_serve] daemon cannot enable one.  The selector is stored in a counterexample's JSON so replay
    plants the same bug. *)

type t =
  | Off  (** no planted bug — the default *)
  | Crash_replay
      (** {!Replica.crash} notifies the parked accesses' clients (their
          [on_timeout] fires) but forgets to drop the queue entries, so
          recovery replays them and clients observe a double completion *)
  | Oe_slack of float
      (** the OE admission check grants this much extra order error: an
          accept-path off-by-[slack] *)
  | Wrong_shard
      (** the sharded router delivers each submission to the next shard
          over, leaking writes across shards *)

val to_string : t -> string
(** ["off"], ["crash_replay"], ["oe_slack:<x>"] or ["wrong_shard"].  The
    slack is printed with [%.17g], so {!of_string} reads back the same
    float. *)

val of_string : string -> t option
(** Inverse of {!to_string}.  Rejects a slack that is not a finite
    positive number: a NaN slack parks every OE-bounded access (a liveness
    failure, not the OE bug), and a zero or negative one plants nothing. *)
