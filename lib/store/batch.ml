(* Anti-entropy syncs in bytes.  A sync carries the sender's vector and
   cover, the CSN slice, and either a delta (the writes the receiver's vector
   proves it lacks) or, when the sender has truncated below the receiver's
   vector, a full snapshot plus the retained tail.  This module is the only
   place those fields are laid out: a Batch frame is the sender and shard
   followed by the sync body, and {!Tact_replica.Wire} puts the same body
   behind its own envelope. *)

let magic = 0xB6

let version = 3

type kind = Push | Pull_reply of int | Gossip

type payload =
  | Delta of Write.t list
  | Full of Wlog.snapshot * Write.t list
      (** snapshot + retained writes past its vector *)

type t = {
  from : int;
  shard : int;  (** the shard whose log this frame carries (0 when unsharded) *)
  kind : kind;
  vector : Version_vector.t;
  cover : float array;
  csn_start : int;
  csn : Write.id list;
  rate : float;
  payload : payload;
}

let payload_writes b = match b.payload with Delta ws | Full (_, ws) -> ws

(* ------------------------------------------------------------------ *)
(* Exact arithmetic size — mirrors the encoders below; checked by tests. *)

let writes_byte_size ws =
  List.fold_left (fun acc w -> acc + Write.byte_size w) 8 ws

let body_byte_size b =
  let fixed =
    1 (* kind tag *) + 8 (* round *) + 8 (* rate *) + 8 (* csn_start *)
    + 1 (* payload tag *)
  in
  let csn = 8 + (16 * List.length b.csn) in
  let vector = Codec.vector_byte_size b.vector in
  let cover = 8 + (8 * Array.length b.cover) in
  let payload =
    match b.payload with
    | Delta ws -> writes_byte_size ws
    | Full (snap, ws) -> Codec.snapshot_byte_size snap + writes_byte_size ws
  in
  fixed + csn + vector + cover + payload

let byte_size b =
  1 (* magic *) + 1 (* version *) + 8 (* from *) + 8 (* shard *) + body_byte_size b

(* ------------------------------------------------------------------ *)
(* Encode                                                              *)

let kind_tag = function Push -> 0 | Pull_reply _ -> 1 | Gossip -> 2
let kind_round = function Pull_reply r -> r | Push | Gossip -> 0

let put_body frame b =
  let open Codec in
  put_u8 frame (kind_tag b.kind);
  put_int frame (kind_round b.kind);
  put_float frame b.rate;
  put_int frame b.csn_start;
  put_int frame (List.length b.csn);
  List.iter
    (fun (id : Write.id) ->
      put_int frame id.origin;
      put_int frame id.seq)
    b.csn;
  encode_vector frame b.vector;
  put_int frame (Array.length b.cover);
  Array.iter (put_float frame) b.cover;
  let put_writes ws =
    put_int frame (List.length ws);
    List.iter (encode_write frame) ws
  in
  match b.payload with
  | Delta ws ->
    put_u8 frame 0;
    put_writes ws
  | Full (snap, ws) ->
    put_u8 frame 1;
    encode_snapshot frame snap;
    put_writes ws

let encode_body frame b =
  Codec.Frame.preallocate frame (body_byte_size b);
  put_body frame b

let encode frame b =
  let open Codec in
  Frame.preallocate frame (byte_size b);
  put_u8 frame magic;
  put_u8 frame version;
  put_int frame b.from;
  put_int frame b.shard;
  put_body frame b

let to_string b = Codec.to_string encode b

(* ------------------------------------------------------------------ *)
(* Decode                                                              *)

let decode_body c ~from ~shard =
  let open Codec in
  let tag = get_u8 c in
  let round = get_int c in
  let kind =
    match tag with
    | 0 -> Push
    | 1 -> Pull_reply round
    | 2 -> Gossip
    | t -> raise (Malformed (Printf.sprintf "bad sync kind %d" t))
  in
  let rate = get_float c in
  let csn_start = get_int c in
  let ncsn = get_int c in
  check_items c ~n:ncsn ~min_size:16 ~what:"csn";
  let csn =
    List.init ncsn (fun _ ->
        let origin = get_int c in
        let seq = get_int c in
        { Write.origin; seq })
  in
  let vector = decode_vector c in
  let ncover = get_int c in
  check_items c ~n:ncover ~min_size:8 ~what:"cover";
  let cover = Array.init ncover (fun _ -> get_float c) in
  let payload =
    match get_u8 c with
    | 0 -> Delta (decode_writes c)
    | 1 ->
      let snap = decode_snapshot c in
      Full (snap, decode_writes c)
    | t -> raise (Malformed (Printf.sprintf "bad payload tag %d" t))
  in
  { from; shard; kind; vector; cover; csn_start; csn; rate; payload }

let decode_frame c =
  let from = Codec.get_int c in
  let shard = Codec.get_int c in
  if shard < 0 then raise (Codec.Malformed "negative shard id");
  decode_body c ~from ~shard

let decode s = Transport.decode_message ~what:"batch" ~magic ~version decode_frame s

(* ------------------------------------------------------------------ *)
(* The batch planner: what one sync round sends to one peer.           *)

(* Delta against the peer's (believed) vector when the log can still serve
   it; otherwise fall back to a full snapshot plus the retained tail — the
   truncation-integration point.  The believed vector only ever lags the
   peer's true state, so a stale belief costs redundant writes (deduped on
   receive), never correctness. *)
let plan ~log ~peer_vector payload_of =
  if Wlog.can_serve log peer_vector then
    payload_of (Delta (Wlog.writes_since log peer_vector))
  else
    let snap = Wlog.snapshot log in
    payload_of (Full (snap, Wlog.writes_since log snap.Wlog.snap_vector))
