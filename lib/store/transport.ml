(* The pluggable TRANSPORT seam: error taxonomy, the endpoint record a
   replica runs against, and the length-prefix framing helpers stream
   backends share.  No Unix here — real sockets live
   in lib/transport, the only layer admitted to use them. *)

type error =
  | Timeout of string
  | Refused of string
  | Closed of string
  | Reset of string
  | Unreachable of string
  | Malformed of string
  | Too_large of { limit : int; got : int }

let error_to_string = function
  | Timeout m -> "timeout: " ^ m
  | Refused m -> "refused: " ^ m
  | Closed m -> "closed: " ^ m
  | Reset m -> "reset: " ^ m
  | Unreachable m -> "unreachable: " ^ m
  | Malformed m -> "malformed: " ^ m
  | Too_large { limit; got } ->
    Printf.sprintf "frame too large: %d bytes (limit %d)" got limit

let is_transient = function
  | Timeout _ | Refused _ | Reset _ | Unreachable _ -> true
  | Closed _ | Malformed _ | Too_large _ -> false

(* The one total decoder every byte format goes through: envelope checks
   around [body], and every decode failure mapped onto [Malformed]. *)
let decode_message ~what ~magic ~version body s =
  let c = Codec.cursor s in
  match
    let m = Codec.get_u8 c in
    if m <> magic then raise (Codec.Malformed (Printf.sprintf "%s: bad magic 0x%02x" what m));
    let v = Codec.get_u8 c in
    if v <> version then
      raise (Codec.Malformed (Printf.sprintf "%s: unsupported version %d" what v));
    let x = body c in
    if c.pos <> String.length s then raise (Codec.Malformed (what ^ ": trailing bytes"));
    x
  with
  | x -> Ok x
  | exception Codec.Malformed m -> Error (Malformed m)
  | exception Invalid_argument m -> Error (Malformed (what ^ ": " ^ m))

type 'm endpoint = {
  ep_now : unit -> float;
  ep_schedule : tag:string -> delay:float -> (unit -> unit) -> unit;
  ep_every : tag:string -> period:float -> (unit -> bool) -> unit;
  ep_send : dst:int -> 'm -> (unit, error) result;
  ep_close : unit -> unit;
  ep_emit : (Event.t -> unit) option;
}

(* ------------------------------------------------------------------ *)
(* Length-prefix framing                                               *)

let frame_header_size = 4
let default_max_frame = 16 * 1024 * 1024

let set_frame_header buf ~off ~len =
  Bytes.set_uint8 buf off ((len lsr 24) land 0xff);
  Bytes.set_uint8 buf (off + 1) ((len lsr 16) land 0xff);
  Bytes.set_uint8 buf (off + 2) ((len lsr 8) land 0xff);
  Bytes.set_uint8 buf (off + 3) (len land 0xff)

let encode_frame_header ~len =
  if len < 0 then invalid_arg "Transport.encode_frame_header: negative length";
  (* lint: allow alloc-hot-path -- standalone header for tests and one-shot
     senders; the batch path writes headers in place via [put_frame] *)
  let b = Bytes.create frame_header_size in
  set_frame_header b ~off:0 ~len;
  Bytes.unsafe_to_string b

let put_frame frame payload =
  let len = String.length payload in
  if len < 0 then invalid_arg "Transport.put_frame: negative length";
  let off = Codec.Frame.reserve frame frame_header_size in
  set_frame_header frame.Codec.Frame.buf ~off ~len;
  Codec.put_raw frame payload

let decode_frame_header ?(max_frame = default_max_frame) buf ~off ~avail =
  if avail < frame_header_size then Ok None
  else begin
    let b i = Bytes.get_uint8 buf (off + i) in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > max_frame then Error (Too_large { limit = max_frame; got = len })
    else Ok (Some len)
  end
