(** The tact_serve client protocol: a small length-prefix-framed
    request/response codec (doc/TRANSPORT.md, "Client protocol").

    Clients connect to any replica's client socket and exchange one frame
    per message ({!Tact_store.Transport.put_frame} framing, same 4-byte BE
    length prefix and frame bound as the peer wire).  Three requests —
    submit a write, query a key under a bound vector, ask for status — and
    four responses.  Decoding is total over hostile input, same discipline
    as {!Tact_store.Batch.decode}: typed errors, count checks before
    allocation, no exceptions across the boundary. *)

type request =
  | Submit of { conit : string; nweight : float; oweight : float; op : Tact_store.Op.t }
      (** One write affecting one conit — the daemon maps it onto
          [Replica.submit_write].  A procedure ([Op.Named]) whose name
          is not in the fleet's [Config.procs] is answered with
          [Outcome (Conflict _)], like any other conflicting write. *)
  | Query of { key : string; conit : string; bounds : Tact_core.Bounds.t }
      (** Read [key] once [conit] meets [bounds] at the serving replica. *)
  | Status  (** liveness / accounting probe *)

type status = {
  c_id : int;  (** serving replica id *)
  c_n : int;
  c_up : bool;
  c_log_len : int;
  c_pending : int;  (** accesses parked on unmet bounds *)
  c_malformed : int;  (** hostile peer frames rejected so far *)
  c_peers_up : int;  (** peer connections currently established *)
  c_now : float;  (** serving replica's clock *)
}

type response =
  | Outcome of Tact_store.Op.outcome  (** answer to [Submit] *)
  | Value of Tact_store.Value.t  (** answer to [Query] *)
  | Status_r of status  (** answer to [Status] *)
  | Err of string
      (** the request decoded but could not be served (bad conit, deadline
          exceeded, replica crashed, ...) *)

val encode_request : Tact_store.Codec.Frame.t -> request -> unit

val decode_request : string -> (request, Tact_store.Transport.error) result

val encode_response : Tact_store.Codec.Frame.t -> response -> unit
val decode_response : string -> (response, Tact_store.Transport.error) result

val request_to_string : request -> string
(** Whole-message convenience (throwaway frame), for one-shot clients. *)

val response_to_string : response -> string

val describe_request : request -> string
val describe_response : response -> string
