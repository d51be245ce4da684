(* The queued bytes are [buf.[off .. off + len - 1]].  An append that does
   not fit behind them slides them to the front when they fill at most half
   of the array, and otherwise doubles it: a slide follows at least
   [capacity / 2] written bytes, and the capacity doubles at most
   logarithmically often, so every byte is copied O(1) times. *)
type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let create n = { buf = Bytes.create (max n 16); off = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let clear t =
  t.off <- 0;
  t.len <- 0

let add_string t s =
  let n = String.length s in
  let cap = Bytes.length t.buf in
  if t.off + t.len + n > cap then begin
    if t.len + n <= cap / 2 then Bytes.blit t.buf t.off t.buf 0 t.len
    else begin
      let buf = Bytes.create (max (2 * cap) (t.len + n)) in
      Bytes.blit t.buf t.off buf 0 t.len;
      t.buf <- buf
    end;
    t.off <- 0
  end;
  Bytes.blit_string s 0 t.buf (t.off + t.len) n;
  t.len <- t.len + n

let write t fd =
  let written = Unix.write fd t.buf t.off t.len in
  t.len <- t.len - written;
  t.off <- (if t.len = 0 then 0 else t.off + written);
  written
