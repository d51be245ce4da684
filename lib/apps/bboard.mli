(** Replicated bulletin board — the paper's running example (Sections 1, 3.4,
    Figure 5) and the first of its three sample applications.

    Messages are posted at any replica and propagate via anti-entropy.  Two
    conits are exported: ["AllMsg"], the total number of messages, and
    ["MsgFromFriends"], the number of messages posted by a distinguished
    user's friends.  Posts affect both (when applicable) with unit weights;
    reads bound (NE, OE, ST) per conit exactly as in Figure 5. *)

val conit_all : string
val conit_friends : string

val post :
  Tact_replica.Session.t -> author:int -> friends:int list -> text:string ->
  k:(Tact_store.Op.outcome -> unit) -> unit
(** Figure 5(a): appends the message; affects ["AllMsg"] with unit weights and
    ["MsgFromFriends"] too when [author] is in [friends]. *)

val read_messages :
  Tact_replica.Session.t ->
  all_bound:Tact_core.Bounds.t ->
  friends_bound:Tact_core.Bounds.t ->
  k:(Tact_store.Value.t -> unit) ->
  unit
(** Figure 5(b): retrieves the message list under the given per-conit
    consistency levels. *)

type result = {
  posts : int;  (** writes accepted *)
  reads : int;  (** reads served *)
  messages : int;  (** network messages *)
  bytes : int;  (** network bytes *)
  mean_read_latency : float;
  p99_read_latency : float;
  mean_write_latency : float;
  mean_observed_ne : float;  (** posts missing from the reader's view, averaged *)
  max_observed_ne : float;
  converged : bool;
  violations : int;
  oe_syncs : int;  (** sync actions forced by order-error bounds *)
  st_pulls : int;  (** pulls forced by staleness bounds *)
  ne_rounds : int;  (** full pull rounds for tighter-than-declared NE *)
}

val run :
  ?seed:int ->
  ?n:int ->
  ?post_rate:float ->  (* posts/s per replica *)
  ?read_rate:float ->  (* reads/s per replica *)
  ?duration:float ->
  ?latency:float ->
  ?ne_bound:float ->  (* declared bound on ["AllMsg"] (proactive pushes) *)
  ?read_bounds:Tact_core.Bounds.t ->  (* per-read requirement on ["AllMsg"] *)
  ?antientropy:float option ->
  unit ->
  result
(** One bulletin-board simulation; the workload posts from every replica and
    reads at every replica, both Poisson. *)
