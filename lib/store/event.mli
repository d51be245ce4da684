(** The one typed event stream a run reports through.

    A replica, its TCP backend and the live fault injector each publish
    {!t} values into one per-process sink, [Event.t -> unit], which travels
    through the {!Transport.endpoint} seam ([ep_emit]).  The simulator
    ({!Tact_replica.System.create}) and the daemon
    ({!Tact_transport.Serve.create}) take the same [?on_event] sink, so a
    simulated run and a live one describe themselves in one vocabulary.
    Producers test for a sink before they build an event: an unobserved run
    pays one branch per site and allocates nothing. *)

type kind =
  (* replica protocol *)
  | Accept of Write.t  (** a local write entered the log *)
  | Transfer of { from : int; writes : int }
      (** a sync from [from] brought [writes] new writes *)
  | Commit of { writes : int; csn : bool }
      (** [writes] writes committed, by CSN ([csn]) or by stability *)
  | Snapshot of { from : int; committed : int }
      (** a snapshot from [from] installed a [committed]-write prefix *)
  | Blocked of { write : bool; deps : int }
      (** an access parked on [deps] unmet bounds *)
  | Served of { wait : float }  (** a parked read was served after [wait] s *)
  | Malformed of string  (** an incoming message rejected, with the reason *)
  | Wrong_shard of { shard : int; serving : int }
      (** a batch frame for another shard was rejected *)
  | Crash
  | Recover
  (* TCP connections *)
  | Link of { peer : int; before : string; cause : string; after : string }
      (** a supervisor transition of the dialed link to [peer]; the states
          are rendered by [Supervisor.to_string] (the transport layer sits
          above this one, so the state type cannot be named here) *)
  | Enqueue of { peer : int; bytes : int }  (** a frame queued on a live link *)
  | Park of { peer : int; bytes : int }  (** a frame parked for a down link *)
  | Recv of { peer : int; bytes : int }  (** a frame received; 0 is a probe *)
  | Hello of int  (** a peer authenticated its accepted connection *)
  | Ack of int  (** a probe answered *)
  | Write_failed of { peer : int; error : string }
  | Dropped of int option  (** an accepted connection closed (peer if known) *)
  (* live fault injection *)
  | Fault of { at : float; action : string }
      (** a scheduled fault fired ([at]: its offset in the schedule) *)

type t = { time : float; node : int; kind : kind }
(** [node] is the publishing replica's id, or -1 for the simulator's fault
    injector, which runs outside every replica. *)

val to_string : t -> string
(** One line: time, ["replica <node>"] (["nemesis"] for node -1), kind label and detail, in fixed
    columns. *)
