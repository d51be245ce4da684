(** Declarative scenario scripts: a timeline of workload and fault events
    over a system, for tests, examples and the CLI.

    {[
      Scenario.run sys
        [
          at 1.0 (write ~replica:0 ~conit:"c" (Op.Add ("x", 1.0)));
          at 2.0 (partition [ 2 ] [ 0; 1 ]);
          at 3.0 (strong_read ~replica:2 ~conit:"c" ~key:"x" results);
          at 8.0 heal;
          at 9.0 (crash 1);
          at 12.0 (recover 1);
        ]
        ~until:60.0
    ]}

    Events at equal times run in list order.  [results] collects read
    results as [(virtual completion time, value)] pairs. *)

type event

val at : float -> (Tact_replica.System.t -> unit) -> event

val write :
  replica:int -> conit:string -> Tact_store.Op.t -> Tact_replica.System.t -> unit
(** Submit an unconstrained unit-weight write at the replica. *)

val strong_read :
  replica:int -> conit:string -> key:string ->
  (float * Tact_store.Value.t) list ref -> Tact_replica.System.t -> unit
(** Submit a read of [key] with zero error on [conit]; its completion
    (time, value) is appended to the collector. *)

val partition : int list -> int list -> Tact_replica.System.t -> unit
val heal : Tact_replica.System.t -> unit
val crash : int -> Tact_replica.System.t -> unit
val recover : int -> Tact_replica.System.t -> unit

val run : ?until:float -> Tact_replica.System.t -> event list -> unit
(** Schedule every event at its time and drain the engine. *)
