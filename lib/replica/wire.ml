(* The replica wire codec: every protocol message, actually serialisable.

   [msg] is what a replica's transport endpoint carries: the simulator passes
   the values as they are, a real transport delivers bytes.  A message is
   either a raw {!Tact_store.Batch} frame, which crosses as itself, or this
   module's envelope — magic, version, tag and sender — followed by its
   fields.  A [Transfer] or [Snapshot] is a sync, whose fields are Batch's
   sync body; only [Pull_req] and [Ack] are laid out here.  [decode]
   dispatches on the first byte and is total over arbitrary bytes. *)

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
      (** one {!Tact_store.Batch} frame, actually serialised — sender,
          shard and sync body in a single message (Batched sync mode) *)

(* Distinct from Batch's magic (0xB6): [decode] tells the two apart by it. *)
let magic = 0xA7
let version = 2

let batch_kind = function
  | `Push -> Batch.Push
  | `Pull_reply r -> Batch.Pull_reply r
  | `Gossip -> Batch.Gossip

let transfer_kind = function
  | Batch.Push -> `Push
  | Batch.Pull_reply r -> `Pull_reply r
  | Batch.Gossip -> `Gossip

let put_envelope f ~tag ~from =
  Codec.put_u8 f magic;
  Codec.put_u8 f version;
  Codec.put_u8 f tag;
  Codec.put_int f from

(* A [Transfer] is a delta sync; a [Snapshot] is a full one with no CSN
   slice, sent as the reply to pull round [round] (0 when it answers no
   round, which completes nothing).  Both cross as tag 0 and Batch's sync
   body, with the shard left at 0. *)
let encode f msg =
  let open Codec in
  match msg with
  | Transfer { from; writes; vector; cover; csn_start; csn; rate; kind } ->
    put_envelope f ~tag:0 ~from;
    Batch.encode_body f
      { Batch.from; shard = 0; kind = batch_kind kind; vector; cover; csn_start; csn;
        rate; payload = Batch.Delta writes }
  | Snapshot { from; snap; writes; vector; cover; rate; round } ->
    put_envelope f ~tag:0 ~from;
    Batch.encode_body f
      { Batch.from; shard = 0; kind = Batch.Pull_reply round; vector; cover;
        csn_start = 0; csn = []; rate; payload = Batch.Full (snap, writes) }
  | Pull_req { from; vector; csn_known; round } ->
    put_envelope f ~tag:1 ~from;
    encode_vector f vector;
    put_int f csn_known;
    put_int f round
  | Ack { from; vector; csn_known } ->
    put_envelope f ~tag:2 ~from;
    encode_vector f vector;
    put_int f csn_known
  | Batch_frame s -> put_raw f s

let to_string = function
  | Batch_frame s -> s
  | msg -> Codec.to_string encode msg

(* The inverse of [encode]'s two sync cases: bytes that neither describes
   are malformed. *)
let of_sync (b : Batch.t) =
  match (b.payload, b.kind) with
  | Batch.Delta writes, kind ->
    Transfer
      { from = b.from; writes; vector = b.vector; cover = b.cover;
        csn_start = b.csn_start; csn = b.csn; rate = b.rate; kind = transfer_kind kind }
  | Batch.Full _, _ when b.csn_start <> 0 || b.csn <> [] ->
    raise (Codec.Malformed "snapshot sync carries a CSN slice")
  | Batch.Full (snap, writes), Batch.Pull_reply round ->
    Snapshot
      { from = b.from; snap; writes; vector = b.vector; cover = b.cover;
        rate = b.rate; round }
  | Batch.Full _, (Batch.Push | Batch.Gossip) ->
    raise (Codec.Malformed "snapshot sync is not a pull reply")

let decode_fields c =
  let open Codec in
  let tag = get_u8 c in
  let from = get_int c in
  match tag with
  | 0 -> of_sync (Batch.decode_body c ~from ~shard:0)
  | 1 ->
    let vector = decode_vector c in
    let csn_known = get_int c in
    let round = get_int c in
    Pull_req { from; vector; csn_known; round }
  | 2 ->
    let vector = decode_vector c in
    let csn_known = get_int c in
    Ack { from; vector; csn_known }
  | t -> raise (Malformed (Printf.sprintf "bad wire message tag %d" t))

(* A raw Batch frame is handed on undecoded: the replica decodes it once,
   and checks its sender and shard against where it arrived. *)
let decode s =
  if s <> "" && Char.code s.[0] = Batch.magic then Ok (Batch_frame s)
  else Transport.decode_message ~what:"wire" ~magic ~version decode_fields s
