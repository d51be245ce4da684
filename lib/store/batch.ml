(* Framed anti-entropy batches: one wire frame per sync round, carrying
   everything the per-write path used to spread over many Transfer messages —
   the sender's vector and cover, the CSN slice, and either a delta (the
   writes the receiver's vector proves it lacks) or, when the sender has
   truncated below the receiver's vector, a full snapshot plus the retained
   tail.  The header carries per-origin sequence ranges so a receiver (or a
   relay) can summarise a frame without decoding its payload. *)

let magic = 0xB6

(* Version 2 added the shard id: with a sharded conit space every frame names
   the shard whose log it carries, so a receiver can reject (and account for)
   deliveries that leaked across shards without decoding the payload. *)
let version = 2

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
  payload : t_payload;
}

and t_payload = payload

type header = {
  h_from : int;
  h_shard : int;
  h_kind : kind;
  h_rate : float;
  h_csn_start : int;
  h_ranges : (int * int * int) list;
      (** (origin, lo, hi): the batch carries origin's writes seq lo..hi *)
  h_payload : [ `Delta | `Full ];
}

let payload_writes b = match b.payload with Delta ws | Full (_, ws) -> ws

(* Per-origin contiguous sequence ranges of the carried writes.  Delta writes
   are exactly the suffix the receiver's vector lacks, so per origin they are
   contiguous; we compute min/max and leave holes (impossible by
   construction) to the decoder's write-level dedup.

   One pass over the writes into two arrays indexed by origin, sized by the
   sender's vector (and grown for a write from beyond it): [lo.(o)] is
   [max_int] for an origin the batch does not carry.  Returns the arrays
   and the number of origins carried. *)
type spans = { lo : int array; hi : int array; carried : int }

let spans b =
  let size = Version_vector.size b.vector in
  let lo = ref (Array.make size max_int) and hi = ref (Array.make size 0) in
  let carried = ref 0 in
  List.iter
    (fun (w : Write.t) ->
      let o = w.id.origin and s = w.id.seq in
      if o >= Array.length !lo then begin
        let grow a fill =
          let a' = Array.make (max (o + 1) (2 * Array.length a)) fill in
          Array.blit a 0 a' 0 (Array.length a);
          a'
        in
        lo := grow !lo max_int;
        hi := grow !hi 0
      end;
      let lo = !lo and hi = !hi in
      if lo.(o) = max_int then begin
        incr carried;
        lo.(o) <- s;
        hi.(o) <- s
      end
      else begin
        if s < lo.(o) then lo.(o) <- s;
        if s > hi.(o) then hi.(o) <- s
      end)
    (payload_writes b);
  { lo = !lo; hi = !hi; carried = !carried }

let ranges b =
  let { lo; hi; _ } = spans b in
  let acc = ref [] in
  for o = Array.length lo - 1 downto 0 do
    if lo.(o) <> max_int then acc := (o, lo.(o), hi.(o)) :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Exact arithmetic size — mirrors [encode] below; checked by tests.   *)

let writes_byte_size ws =
  List.fold_left (fun acc w -> acc + Write.byte_size w) 8 ws

let size_with_ranges b ~carried =
  let header =
    1 (* magic *) + 1 (* version *) + 8 (* from *) + 8 (* shard *)
    + 1 (* kind tag *)
    + 8 (* round *) + 8 (* rate *) + 8 (* csn_start *)
    + 8 + (24 * carried)
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
  header + csn + vector + cover + payload

let byte_size b = size_with_ranges b ~carried:(spans b).carried

(* ------------------------------------------------------------------ *)
(* Encode                                                              *)

let kind_tag = function Push -> 0 | Pull_reply _ -> 1 | Gossip -> 2
let kind_round = function Pull_reply r -> r | Push | Gossip -> 0

let encode frame b =
  let open Codec in
  let { lo; hi; carried } = spans b in
  Frame.preallocate frame (size_with_ranges b ~carried);
  put_u8 frame magic;
  put_u8 frame version;
  put_int frame b.from;
  put_int frame b.shard;
  put_u8 frame (kind_tag b.kind);
  put_int frame (kind_round b.kind);
  put_float frame b.rate;
  put_int frame b.csn_start;
  put_int frame carried;
  for o = 0 to Array.length lo - 1 do
    if lo.(o) <> max_int then begin
      put_int frame o;
      put_int frame lo.(o);
      put_int frame hi.(o)
    end
  done;
  (match b.payload with Delta _ -> put_u8 frame 0 | Full _ -> put_u8 frame 1);
  put_int frame (List.length b.csn);
  List.iter
    (fun (id : Write.id) ->
      put_int frame id.origin;
      put_int frame id.seq)
    b.csn;
  encode_vector frame b.vector;
  put_int frame (Array.length b.cover);
  Array.iter (put_float frame) b.cover;
  match b.payload with
  | Delta ws ->
    put_int frame (List.length ws);
    List.iter (encode_write frame) ws
  | Full (snap, ws) ->
    encode_snapshot frame snap;
    put_int frame (List.length ws);
    List.iter (encode_write frame) ws

let to_string b = Codec.to_string encode b

(* ------------------------------------------------------------------ *)
(* Decode                                                              *)

let decode_kind c =
  let tag = Codec.get_u8 c in
  let round = Codec.get_int c in
  match tag with
  | 0 -> Push
  | 1 -> Pull_reply round
  | 2 -> Gossip
  | t -> raise (Codec.Malformed (Printf.sprintf "bad batch kind %d" t))

let decode_prefix c =
  let open Codec in
  if get_u8 c <> magic then raise (Malformed "bad batch magic");
  let v = get_u8 c in
  if v <> version then
    raise (Malformed (Printf.sprintf "unsupported batch version %d" v));
  let from = get_int c in
  let shard = get_int c in
  if shard < 0 then raise (Malformed "negative shard id");
  let kind = decode_kind c in
  let rate = get_float c in
  let csn_start = get_int c in
  let nranges = get_int c in
  check_items c ~n:nranges ~min_size:24 ~what:"range";
  let ranges =
    List.init nranges (fun _ ->
        let o = get_int c in
        let lo = get_int c in
        let hi = get_int c in
        (o, lo, hi))
  in
  let payload =
    match get_u8 c with
    | 0 -> `Delta
    | 1 -> `Full
    | t -> raise (Malformed (Printf.sprintf "bad payload tag %d" t))
  in
  (from, shard, kind, rate, csn_start, ranges, payload)

let decode_header s =
  let c = Codec.cursor s in
  let h_from, h_shard, h_kind, h_rate, h_csn_start, h_ranges, h_payload =
    decode_prefix c
  in
  { h_from; h_shard; h_kind; h_rate; h_csn_start; h_ranges; h_payload }

let of_string s =
  let open Codec in
  let c = cursor s in
  let from, shard, kind, rate, csn_start, _ranges, ptag = decode_prefix c in
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
    match ptag with
    | `Delta -> Delta (decode_writes c)
    | `Full ->
      let snap = decode_snapshot c in
      let ws = decode_writes c in
      Full (snap, ws)
  in
  if c.pos <> String.length c.data then
    raise (Malformed "trailing bytes after batch");
  { from; shard; kind; vector; cover; csn_start; csn; rate; payload }

(* Typed decode for untrusted input: total over arbitrary bytes — truncated,
   corrupt, oversized or trailing-garbage frames come back as
   [Error (Malformed _)], never an exception and (thanks to the
   [check_items] guards above) never an allocation proportional to a corrupt
   count field.  The decode-fuzz test drives mutated frames through here. *)
let wrap_decode f s =
  match f s with
  | v -> Ok v
  | exception Codec.Malformed m -> Error (Transport.Malformed m)
  | exception Invalid_argument m ->
    Error (Transport.Malformed ("decode: " ^ m))

let decode s = wrap_decode of_string s
let decode_header_safe s = wrap_decode decode_header s

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
