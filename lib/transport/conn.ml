open Tact_store

type failure = Eof | Io of Unix.error | Bad_prefix of Transport.error

(* The unread input is [ibuf.[ioff .. ioff + ilen - 1]], the unsent output
   [obuf.[ooff .. ooff + olen - 1]]. *)
type t = {
  loop : Loop.t;
  fd : Unix.file_descr;
  mutable ibuf : Bytes.t;
  mutable ioff : int;
  mutable ilen : int;
  mutable obuf : Bytes.t;
  mutable ooff : int;
  mutable olen : int;
  mutable closed : bool;
}

let of_fd loop fd =
  { loop; fd; ibuf = Bytes.create 4096; ioff = 0; ilen = 0;
    obuf = Bytes.create 4096; ooff = 0; olen = 0; closed = false }

let is_closed t = t.closed
let unsent t = t.olen
let on_readable t f = Loop.on_readable t.loop t.fd f
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    Loop.forget t.loop t.fd;
    close_quietly t.fd
  end

(* ------------------------------------------------------------------ *)
(* Sockets                                                             *)

let nodelay fd = try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let listen loop addr ~backlog on_accept =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.set_nonblock fd;
     Unix.bind fd addr;
     Unix.listen fd backlog
   with Unix.Unix_error _ as e ->
     close_quietly fd;
     raise e);
  let t = of_fd loop fd in
  on_readable t (fun () ->
      match Unix.accept fd with
      | fd, _ ->
        Unix.set_nonblock fd;
        nodelay fd;
        on_accept (of_fd loop fd)
      | exception Unix.Unix_error _ -> ());
  t

let connect loop addr ~on_connect =
  match Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
    match
      Unix.set_nonblock fd;
      nodelay fd;
      Unix.connect fd addr
    with
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) | () ->
      let t = of_fd loop fd in
      (* Reading SO_ERROR clears it, so a failed connect is closed at once:
         a later writable wake-up on a still-open fd would pass for a
         success. *)
      Loop.on_writable loop fd (fun () ->
          match Unix.getsockopt_error fd with
          | None ->
            Loop.clear_writable loop fd;
            on_connect t (Ok ())
          | Some e ->
            close t;
            on_connect t (Error (Io e)));
      Some t
    | exception Unix.Unix_error _ ->
      close_quietly fd;
      None)

(* ------------------------------------------------------------------ *)
(* Input                                                               *)

(* Move the unread bytes to the front, into a buffer of at least [need]
   bytes ([ilen] is already bounded by the frame limit, so this cannot
   balloon). *)
let settle t ~need =
  if Bytes.length t.ibuf < need then begin
    let fresh = Bytes.create need in
    Bytes.blit t.ibuf t.ioff fresh 0 t.ilen;
    t.ibuf <- fresh
  end
  else if t.ioff > 0 then Bytes.blit t.ibuf t.ioff t.ibuf 0 t.ilen;
  t.ioff <- 0

let read t =
  if t.closed then Ok false
  else begin
    if t.ioff + t.ilen = Bytes.length t.ibuf then
      settle t ~need:(if t.ioff > 0 then t.ilen + 1 else 2 * Bytes.length t.ibuf);
    let tail = t.ioff + t.ilen in
    match Unix.read t.fd t.ibuf tail (Bytes.length t.ibuf - tail) with
    | 0 ->
      close t;
      Error Eof
    | n ->
      t.ilen <- t.ilen + n;
      Ok true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Ok false
    | exception Unix.Unix_error (e, _, _) ->
      close t;
      Error (Io e)
  end

let take t n =
  if t.ilen < n then None
  else begin
    let s = Bytes.sub_string t.ibuf t.ioff n in
    t.ioff <- t.ioff + n;
    t.ilen <- t.ilen - n;
    Some s
  end

(* Frames already buffered are all handed out even if a callback closes
   the connection: a client's pipelined requests still run after a failed
   response write. *)
let rec drain t ~max_frame f =
  let hdr = Transport.frame_header_size in
  match Transport.decode_frame_header ~max_frame t.ibuf ~off:t.ioff ~avail:t.ilen with
  | Error e ->
    close t;
    Error (Bad_prefix e)
  | Ok (Some len) when t.ilen >= hdr + len ->
    let payload = Bytes.sub_string t.ibuf (t.ioff + hdr) len in
    t.ioff <- t.ioff + hdr + len;
    t.ilen <- t.ilen - hdr - len;
    f payload;
    drain t ~max_frame f
  | Ok (Some len) ->
    settle t ~need:(hdr + len);
    Ok ()
  | Ok None ->
    settle t ~need:hdr;
    Ok ()

let frames t ~max_frame f = if t.closed then Ok () else drain t ~max_frame f

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

(* Extend the output by [n] bytes and return where they go.  Bytes that do
   not fit behind the pending ones slide them to the front when they fill
   at most half the array, and otherwise double it: a slide follows at
   least [capacity / 2] written bytes and the capacity doubles at most
   logarithmically often. *)
let reserve t n =
  let cap = Bytes.length t.obuf in
  if t.ooff + t.olen + n > cap then begin
    if t.olen + n <= cap / 2 then Bytes.blit t.obuf t.ooff t.obuf 0 t.olen
    else begin
      let buf = Bytes.create (max (2 * cap) (t.olen + n)) in
      Bytes.blit t.obuf t.ooff buf 0 t.olen;
      t.obuf <- buf
    end;
    t.ooff <- 0
  end;
  let at = t.ooff + t.olen in
  t.olen <- t.olen + n;
  at

let add_raw t s =
  let at = reserve t (String.length s) in
  Bytes.blit_string s 0 t.obuf at (String.length s)

(* The {!Transport} length prefix, 32-bit big-endian, written in place
   (as two 16-bit halves: an [int32] argument would be boxed). *)
let reserve_frame t len =
  let at = reserve t (Transport.frame_header_size + len) in
  Bytes.set_uint16_be t.obuf at ((len lsr 16) land 0xffff);
  Bytes.set_uint16_be t.obuf (at + 2) (len land 0xffff);
  at + Transport.frame_header_size

let add_frame t s =
  let at = reserve_frame t (String.length s) in
  Bytes.blit_string s 0 t.obuf at (String.length s)

let add_frame_of t (frame : Codec.Frame.t) =
  let len = Codec.Frame.length frame in
  let at = reserve_frame t len in
  Bytes.blit frame.Codec.Frame.buf 0 t.obuf at len

let flush t ~resume =
  if t.closed then Ok 0
  else if t.olen = 0 then begin
    Loop.clear_writable t.loop t.fd;
    Ok 0
  end
  else
    match Unix.write t.fd t.obuf t.ooff t.olen with
    | written ->
      t.olen <- t.olen - written;
      t.ooff <- (if t.olen = 0 then 0 else t.ooff + written);
      if t.olen = 0 then Loop.clear_writable t.loop t.fd
      else Loop.on_writable t.loop t.fd resume;
      Ok written
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Loop.on_writable t.loop t.fd resume;
      Ok 0
    | exception Unix.Unix_error (e, _, _) ->
      close t;
      Error e
