open Tact_store

type request =
  | Submit of { conit : string; nweight : float; oweight : float; op : Op.t }
  | Query of { key : string; conit : string; bounds : Tact_core.Bounds.t }
  | Status

type status = {
  c_id : int;
  c_n : int;
  c_up : bool;
  c_log_len : int;
  c_pending : int;
  c_malformed : int;
  c_peers_up : int;
  c_now : float;
}

type response =
  | Outcome of Op.outcome
  | Value of Value.t
  | Status_r of status
  | Err of string

(* Distinct magics per direction, and from the peer wire (0xA7) and batch
   (0xB6) formats: a client that dials the peer port by mistake is rejected
   on the first byte, not misparsed. *)
let request_magic = 0xC1
let response_magic = 0xC2
let version = 1

let encode_request frame req =
  Codec.put_u8 frame request_magic;
  Codec.put_u8 frame version;
  match req with
  | Submit { conit; nweight; oweight; op } ->
      Codec.put_u8 frame 0;
      Codec.put_string frame conit;
      Codec.put_float frame nweight;
      Codec.put_float frame oweight;
      Codec.encode_op frame op
  | Query { key; conit; bounds } ->
      Codec.put_u8 frame 1;
      Codec.put_string frame key;
      Codec.put_string frame conit;
      Codec.put_float frame bounds.Tact_core.Bounds.ne;
      Codec.put_float frame bounds.ne_rel;
      Codec.put_float frame bounds.oe;
      Codec.put_float frame bounds.st
  | Status -> Codec.put_u8 frame 2

let encode_response frame resp =
  Codec.put_u8 frame response_magic;
  Codec.put_u8 frame version;
  match resp with
  | Outcome (Op.Applied v) ->
      Codec.put_u8 frame 0;
      Codec.put_u8 frame 0;
      Codec.encode_value frame v
  | Outcome (Op.Conflict reason) ->
      Codec.put_u8 frame 0;
      Codec.put_u8 frame 1;
      Codec.put_string frame reason
  | Value v ->
      Codec.put_u8 frame 1;
      Codec.encode_value frame v
  | Status_r s ->
      Codec.put_u8 frame 2;
      Codec.put_int frame s.c_id;
      Codec.put_int frame s.c_n;
      Codec.put_u8 frame (if s.c_up then 1 else 0);
      Codec.put_int frame s.c_log_len;
      Codec.put_int frame s.c_pending;
      Codec.put_int frame s.c_malformed;
      Codec.put_int frame s.c_peers_up;
      Codec.put_float frame s.c_now
  | Err msg ->
      Codec.put_u8 frame 3;
      Codec.put_string frame msg

(* ---- total decoders ---- *)

let request_fields cur =
  match Codec.get_u8 cur with
  | 0 ->
      let conit = Codec.get_string cur in
      let nweight = Codec.get_float cur in
      let oweight = Codec.get_float cur in
      let op = Codec.decode_op cur in
      Submit { conit; nweight; oweight; op }
  | 1 ->
      let key = Codec.get_string cur in
      let conit = Codec.get_string cur in
      let ne = Codec.get_float cur in
      let ne_rel = Codec.get_float cur in
      let oe = Codec.get_float cur in
      let st = Codec.get_float cur in
      Query { key; conit; bounds = { Tact_core.Bounds.ne; ne_rel; oe; st } }
  | 2 -> Status
  | t -> raise (Codec.Malformed (Printf.sprintf "client request: bad tag %d" t))

let response_fields cur =
  match Codec.get_u8 cur with
  | 0 -> (
      match Codec.get_u8 cur with
      | 0 -> Outcome (Op.Applied (Codec.decode_value cur))
      | 1 -> Outcome (Op.Conflict (Codec.get_string cur))
      | t -> raise (Codec.Malformed (Printf.sprintf "client response: bad outcome %d" t)))
  | 1 -> Value (Codec.decode_value cur)
  | 2 ->
      let c_id = Codec.get_int cur in
      let c_n = Codec.get_int cur in
      let c_up = Codec.get_u8 cur <> 0 in
      let c_log_len = Codec.get_int cur in
      let c_pending = Codec.get_int cur in
      let c_malformed = Codec.get_int cur in
      let c_peers_up = Codec.get_int cur in
      let c_now = Codec.get_float cur in
      Status_r { c_id; c_n; c_up; c_log_len; c_pending; c_malformed; c_peers_up; c_now }
  | 3 -> Err (Codec.get_string cur)
  | t -> raise (Codec.Malformed (Printf.sprintf "client response: bad tag %d" t))

let decode_request s =
  Transport.decode_message ~what:"client request" ~magic:request_magic ~version
    request_fields s

let decode_response s =
  Transport.decode_message ~what:"client response" ~magic:response_magic ~version
    response_fields s

let request_to_string req = Codec.to_string encode_request req
let response_to_string resp = Codec.to_string encode_response resp

let describe_request = function
  | Submit { conit; op; _ } ->
      Printf.sprintf "submit conit=%s op=%s" conit (Op.describe op)
  | Query { key; conit; bounds } ->
      Printf.sprintf "query key=%s conit=%s bounds=%s" key conit
        (Tact_core.Bounds.to_string bounds)
  | Status -> "status"

let describe_response = function
  | Outcome (Op.Applied v) -> "applied " ^ Value.to_string v
  | Outcome (Op.Conflict r) -> "conflict " ^ r
  | Value v -> "value " ^ Value.to_string v
  | Status_r s ->
      Printf.sprintf "status id=%d n=%d up=%b log=%d pending=%d malformed=%d peers_up=%d"
        s.c_id s.c_n s.c_up s.c_log_len s.c_pending s.c_malformed s.c_peers_up
  | Err m -> "err " ^ m
