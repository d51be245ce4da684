open Tact_store

(* The unread bytes are [buf.[off .. off + len - 1]]. *)
type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let create n = { buf = Bytes.create (max n 16); off = 0; len = 0 }

(* Move the unread bytes to the front, into a buffer of at least [need]
   bytes ([len] is already bounded by the frame limit, so this cannot
   balloon). *)
let settle t ~need =
  if Bytes.length t.buf < need then begin
    let fresh = Bytes.create need in
    Bytes.blit t.buf t.off fresh 0 t.len;
    t.buf <- fresh
  end
  else if t.off > 0 then Bytes.blit t.buf t.off t.buf 0 t.len;
  t.off <- 0

let read t fd =
  if t.off + t.len = Bytes.length t.buf then
    settle t ~need:(if t.off > 0 then t.len + 1 else 2 * Bytes.length t.buf);
  let nread = Unix.read fd t.buf (t.off + t.len) (Bytes.length t.buf - t.off - t.len) in
  t.len <- t.len + nread;
  nread

let peek t n = if t.len < n then None else Some (Bytes.sub_string t.buf t.off n)

let drop t n =
  t.off <- t.off + n;
  t.len <- t.len - n

let clear t =
  t.off <- 0;
  t.len <- 0

let next_frame t ~max_frame =
  let hdr = Transport.frame_header_size in
  match Transport.decode_frame_header ~max_frame t.buf ~off:t.off ~avail:t.len with
  | Error e -> Error e
  | Ok (Some len) when t.len >= hdr + len ->
    let payload = Bytes.sub_string t.buf (t.off + hdr) len in
    drop t (hdr + len);
    Ok (Some payload)
  | Ok (Some len) ->
    settle t ~need:(hdr + len);
    Ok None
  | Ok None ->
    settle t ~need:hdr;
    Ok None
