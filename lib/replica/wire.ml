(* The replica wire codec: every protocol message, actually serialisable.

   [msg] is what a replica's transport endpoint carries: the simulator passes
   the values as they are, a real transport delivers bytes.  [encode] and
   [to_string] turn any message into the length-delimited payload a stream
   backend frames, and [decode] is total over arbitrary bytes — corrupt
   input comes back as
   [Error (Transport.Malformed _)], with every count field validated against
   the remaining buffer ({!Tact_store.Codec.check_items}) before anything
   proportional to it is allocated.

   Every message encodes: write procedures cross as [Op.Named] pairs and are
   resolved against the receiving replica's procedure table. *)

open Tact_store

type msg =
  | Transfer of {
      from : int;
      writes : Write.t list;
      vector : Version_vector.t;  (** sender's full vector at send time *)
      cover : float array;  (** sender's per-origin cover times *)
      csn_start : int;
      csn : Write.id list;
      rate : float;  (** sender's write-rate estimate, for adaptive budgets *)
      kind : [ `Push | `Pull_reply of int | `Gossip ];
    }
  | Snapshot of {
      from : int;
      snap : Wlog.snapshot;
      writes : Write.t list;  (** retained writes past the snapshot *)
      vector : Version_vector.t;
      cover : float array;
      rate : float;
      round : int;  (** 0 when not a pull-round reply *)
    }
  | Pull_req of { from : int; vector : Version_vector.t; csn_known : int; round : int }
  | Ack of { from : int; vector : Version_vector.t; csn_known : int }
  | Batch_frame of string
      (** one {!Tact_store.Batch} frame, actually serialised — header, CSN
          slice, vector, cover and delta/snapshot payload in a single
          message (Batched sync mode) *)

(* ------------------------------------------------------------------ *)
(* Encode                                                              *)

(* A distinct magic from Batch (0xB6) and the snapshot file format, so a
   frame routed into the wrong decoder fails on the first byte. *)
let magic = 0xA7
let version = 1

let put_cover f cover =
  Codec.put_int f (Array.length cover);
  Array.iter (Codec.put_float f) cover

let put_writes f ws =
  Codec.put_int f (List.length ws);
  List.iter (Codec.encode_write f) ws

let put_csn f csn =
  Codec.put_int f (List.length csn);
  List.iter
    (fun (id : Write.id) ->
      Codec.put_int f id.origin;
      Codec.put_int f id.seq)
    csn

let encode f msg =
  let open Codec in
  put_u8 f magic;
  put_u8 f version;
  match msg with
  | Transfer { from; writes; vector; cover; csn_start; csn; rate; kind } ->
    put_u8 f 0;
    put_int f from;
    (match kind with
    | `Push ->
      put_u8 f 0;
      put_int f 0
    | `Pull_reply round ->
      put_u8 f 1;
      put_int f round
    | `Gossip ->
      put_u8 f 2;
      put_int f 0);
    put_writes f writes;
    encode_vector f vector;
    put_cover f cover;
    put_int f csn_start;
    put_csn f csn;
    put_float f rate
  | Snapshot { from; snap; writes; vector; cover; rate; round } ->
    put_u8 f 1;
    put_int f from;
    put_int f round;
    encode_snapshot f snap;
    put_writes f writes;
    encode_vector f vector;
    put_cover f cover;
    put_float f rate
  | Pull_req { from; vector; csn_known; round } ->
    put_u8 f 2;
    put_int f from;
    encode_vector f vector;
    put_int f csn_known;
    put_int f round
  | Ack { from; vector; csn_known } ->
    put_u8 f 3;
    put_int f from;
    encode_vector f vector;
    put_int f csn_known
  | Batch_frame s ->
    put_u8 f 4;
    put_string f s

let to_string msg = Codec.to_string encode msg

(* ------------------------------------------------------------------ *)
(* Decode                                                              *)

let get_cover c =
  let n = Codec.get_int c in
  Codec.check_items c ~n ~min_size:8 ~what:"cover";
  Array.init n (fun _ -> Codec.get_float c)

let get_csn c =
  let n = Codec.get_int c in
  Codec.check_items c ~n ~min_size:16 ~what:"csn";
  List.init n (fun _ ->
      let origin = Codec.get_int c in
      let seq = Codec.get_int c in
      { Write.origin; seq })

let decode_exn s =
  let open Codec in
  let c = cursor s in
  if get_u8 c <> magic then raise (Malformed "bad wire magic");
  let v = get_u8 c in
  if v <> version then
    raise (Malformed (Printf.sprintf "unsupported wire version %d" v));
  let msg =
    match get_u8 c with
    | 0 ->
      let from = get_int c in
      let ktag = get_u8 c in
      let round = get_int c in
      let kind =
        match ktag with
        | 0 -> `Push
        | 1 -> `Pull_reply round
        | 2 -> `Gossip
        | t -> raise (Malformed (Printf.sprintf "bad transfer kind %d" t))
      in
      let writes = Codec.decode_writes c in
      let vector = decode_vector c in
      let cover = get_cover c in
      let csn_start = get_int c in
      let csn = get_csn c in
      let rate = get_float c in
      Transfer { from; writes; vector; cover; csn_start; csn; rate; kind }
    | 1 ->
      let from = get_int c in
      let round = get_int c in
      let snap = decode_snapshot c in
      let writes = Codec.decode_writes c in
      let vector = decode_vector c in
      let cover = get_cover c in
      let rate = get_float c in
      Snapshot { from; snap; writes; vector; cover; rate; round }
    | 2 ->
      let from = get_int c in
      let vector = decode_vector c in
      let csn_known = get_int c in
      let round = get_int c in
      Pull_req { from; vector; csn_known; round }
    | 3 ->
      let from = get_int c in
      let vector = decode_vector c in
      let csn_known = get_int c in
      Ack { from; vector; csn_known }
    | 4 -> Batch_frame (get_string c)
    | t -> raise (Malformed (Printf.sprintf "bad wire message tag %d" t))
  in
  if c.pos <> String.length c.data then
    raise (Malformed "trailing bytes after wire message");
  msg

let decode s =
  match decode_exn s with
  | msg -> Ok msg
  | exception Codec.Malformed m -> Error (Transport.Malformed m)
  | exception Invalid_argument m -> Error (Transport.Malformed ("decode: " ^ m))
