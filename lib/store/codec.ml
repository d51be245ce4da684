exception Malformed of string

type cursor = { data : string; mutable pos : int }

let cursor data = { data; pos = 0 }

(* ------------------------------------------------------------------ *)
(* The frame allocator: a growable byte arena written through reserved
   offsets, so encoding a whole anti-entropy batch costs one allocation
   per round (amortised zero once the arena has grown to steady-state
   size) instead of one buffer per write.  The shape follows the
   [get_allocator : state -> int -> buffer] idiom of shared-memory
   transports: callers that know an exact size up front (writes memoize
   theirs in [Write.byte_size]) reserve the span and fill it in place. *)

module Frame = struct
  type t = {
    mutable buf : Bytes.t;
    mutable len : int;
    mutable allocs : int;  (* arena (re)allocations, for the bench *)
  }

  let create ?(initial = 4096) () =
    (* lint: allow alloc-hot-path -- arena construction: one buffer per
       Frame, reused for every encode thereafter *)
    { buf = Bytes.create (max 16 initial); len = 0; allocs = 1 }

  let clear t = t.len <- 0
  let length t = t.len
  let allocations t = t.allocs
  let capacity t = Bytes.length t.buf

  let grow t need =
    let cap = ref (Bytes.length t.buf) in
    while !cap < need do
      cap := !cap * 2
    done;
    (* lint: allow alloc-hot-path -- arena growth: doubling keeps this
       amortised-zero; [allocations] counts it for the bench *)
    let fresh = Bytes.create !cap in
    Bytes.blit t.buf 0 fresh 0 t.len;
    t.buf <- fresh;
    t.allocs <- t.allocs + 1

  let reserve t n =
    if n < 0 then invalid_arg "Frame.reserve: negative size";
    if t.len + n > Bytes.length t.buf then grow t (t.len + n);
    let off = t.len in
    t.len <- t.len + n;
    off

  let preallocate t n =
    (* Callers that know the exact encoded size (arithmetic byte sizes)
       declare it up front, bounding the whole encode to at most one arena
       growth — the one-allocation-per-round batch path. *)
    if t.len + n > Bytes.length t.buf then grow t (t.len + n)

  let contents t = Bytes.sub_string t.buf 0 t.len

  let blit_to t ~dst ~dst_off = Bytes.blit t.buf 0 dst dst_off t.len
end

(* ------------------------------------------------------------------ *)
(* Primitives: tagged, fixed-width integers/floats, length-prefixed
   strings.  Big-endian for determinism across hosts.  Each writes into
   a span reserved from the frame arena.

   The 8-byte fields go through the compiler's 64-bit load/store and byte
   swap primitives directly, so an int or a float crosses as an unboxed
   [int64] and no [Int64] box is allocated per field.  Bounds are checked
   first: by [Frame.reserve] when writing, by [need] when reading. *)

external bytes_set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external string_get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let set_be64 buf off x =
  bytes_set64u buf off (if Sys.big_endian then x else bswap64 x)
[@@inline]

let get_be64 s off =
  let x = string_get64u s off in
  if Sys.big_endian then x else bswap64 x
[@@inline]

let put_u8 f n =
  let off = Frame.reserve f 1 in
  Bytes.unsafe_set f.Frame.buf off (Char.unsafe_chr (n land 0xff))

let put_int f n =
  let off = Frame.reserve f 8 in
  set_be64 f.Frame.buf off (Int64.of_int n)

let put_float f x =
  let off = Frame.reserve f 8 in
  set_be64 f.Frame.buf off (Int64.bits_of_float x)

let put_string f s =
  let n = String.length s in
  let off = Frame.reserve f (8 + n) in
  set_be64 f.Frame.buf off (Int64.of_int n);
  Bytes.blit_string s 0 f.Frame.buf (off + 8) n

let put_raw f s =
  let n = String.length s in
  let off = Frame.reserve f n in
  Bytes.blit_string s 0 f.Frame.buf off n

let need c n =
  if c.pos + n > String.length c.data then
    raise (Malformed (Printf.sprintf "truncated at %d (need %d)" c.pos n))

let get_u8 c =
  need c 1;
  let b = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  b

let get_int c =
  need c 8;
  let v = Int64.to_int (get_be64 c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let get_float c =
  need c 8;
  let v = Int64.float_of_bits (get_be64 c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let get_string c =
  let n = get_int c in
  if n < 0 then raise (Malformed "negative string length");
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

(* Guard a decoded element count against the bytes actually left in the
   buffer before allocating anything proportional to it: a corrupt 8-byte
   count field must never balloon memory.  [min_size] is a lower bound on the
   encoded size of one element. *)
let check_items c ~n ~min_size ~what =
  if n < 0 then raise (Malformed (Printf.sprintf "negative %s count" what));
  if min_size > 0 && n > (String.length c.data - c.pos) / min_size then
    raise
      (Malformed
         (Printf.sprintf "%s count %d overruns the remaining %d bytes" what n
            (String.length c.data - c.pos)))

(* ------------------------------------------------------------------ *)
(* Values *)

let rec encode_value f (v : Value.t) =
  match v with
  | Value.Nil -> put_u8 f 0
  | Value.Int i ->
    put_u8 f 1;
    put_int f i
  | Value.Float x ->
    put_u8 f 2;
    put_float f x
  | Value.Str s ->
    put_u8 f 3;
    put_string f s
  | Value.List l ->
    put_u8 f 4;
    put_int f (List.length l);
    List.iter (encode_value f) l

let rec decode_value c =
  match get_u8 c with
  | 0 -> Value.Nil
  | 1 -> Value.Int (get_int c)
  | 2 -> Value.Float (get_float c)
  | 3 -> Value.Str (get_string c)
  | 4 ->
    let n = get_int c in
    check_items c ~n ~min_size:1 ~what:"value list";
    Value.List (List.init n (fun _ -> decode_value c))
  | t -> raise (Malformed (Printf.sprintf "bad value tag %d" t))

(* ------------------------------------------------------------------ *)
(* Operations *)

let encode_op f (op : Op.t) =
  match op with
  | Op.Noop -> put_u8 f 0
  | Op.Set (k, v) ->
    put_u8 f 1;
    put_string f k;
    encode_value f v
  | Op.Add (k, d) ->
    put_u8 f 2;
    put_string f k;
    put_float f d
  | Op.Append (k, v) ->
    put_u8 f 3;
    put_string f k;
    encode_value f v
  | Op.Named (name, arg) ->
    put_u8 f 4;
    put_string f name;
    encode_value f arg

let decode_op c =
  match get_u8 c with
  | 0 -> Op.Noop
  | 1 ->
    let k = get_string c in
    Op.Set (k, decode_value c)
  | 2 ->
    let k = get_string c in
    Op.Add (k, get_float c)
  | 3 ->
    let k = get_string c in
    Op.Append (k, decode_value c)
  | 4 ->
    let name = get_string c in
    Op.Named (name, decode_value c)
  | t -> raise (Malformed (Printf.sprintf "bad op tag %d" t))

(* ------------------------------------------------------------------ *)
(* Writes *)

let encode_write f (w : Write.t) =
  put_int f w.id.origin;
  put_int f w.id.seq;
  put_float f w.accept_time;
  put_int f (List.length w.affects);
  List.iter
    (fun { Write.conit; nweight; oweight } ->
      put_string f conit;
      put_float f nweight;
      put_float f oweight)
    w.affects;
  encode_op f w.op

(* Is [s] encoded at [d.[off ..]]? *)
let rec same_bytes d off s i =
  i = String.length s
  || (Char.equal (String.unsafe_get d (off + i)) (String.unsafe_get s i)
     && same_bytes d off s (i + 1))

(* Do the weights encoded in [d] from [pos] on, [n - k] of them, equal
   [prev]?  Compared in place, byte for byte (so floats compare bitwise and
   sharing never turns -0.0 into 0.0), so a repeated list is read without
   allocating.  The position past them, or -1. *)
let rec weights_at d pos k n (prev : Write.weight list) =
  match prev with
  | [] -> if k = n then pos else -1
  | { conit; nweight; oweight } :: rest ->
    let len = String.length conit in
    if
      k < n
      && pos + 24 + len <= String.length d
      && Int64.equal (get_be64 d pos) (Int64.of_int len)
      && same_bytes d (pos + 8) conit 0
      && Int64.equal (get_be64 d (pos + 8 + len)) (Int64.bits_of_float nweight)
      && Int64.equal (get_be64 d (pos + 16 + len)) (Int64.bits_of_float oweight)
    then weights_at d (pos + 24 + len) (k + 1) n rest
    else -1

(* A write whose weight list equals [prev] keeps [prev] itself. *)
let decode_write_after c ~prev =
  let origin = get_int c in
  let seq = get_int c in
  let accept_time = get_float c in
  let n = get_int c in
  check_items c ~n ~min_size:24 ~what:"affect";
  let past = weights_at c.data c.pos 0 n prev in
  let affects =
    if past >= 0 then begin
      c.pos <- past;
      prev
    end
    else
      List.init n (fun _ ->
          let conit = get_string c in
          let nweight = get_float c in
          let oweight = get_float c in
          { Write.conit; nweight; oweight })
  in
  let op = decode_op c in
  Write.make ~id:{ origin; seq } ~accept_time ~op ~affects

let decode_write c = decode_write_after c ~prev:[]

(* The writes of one frame mostly repeat one weight list, so each write is
   decoded against its predecessor's: one copy per run of equal lists
   instead of one per write.  Writes are immutable, so the sharing is
   invisible. *)
let decode_writes c =
  let n = get_int c in
  (* id (16) + accept time (8) + affect count (8) + op tag (1) *)
  check_items c ~n ~min_size:33 ~what:"write";
  let prev = ref [] in
  List.init n (fun _ ->
      let w = decode_write_after c ~prev:!prev in
      prev := w.Write.affects;
      w)

(* ------------------------------------------------------------------ *)
(* Version vectors and snapshots *)

let encode_vector f v =
  let n = Version_vector.size v in
  put_int f n;
  for i = 0 to n - 1 do
    put_int f (Version_vector.get v i)
  done

let decode_vector c =
  let n = get_int c in
  check_items c ~n ~min_size:8 ~what:"vector entry";
  let v = Version_vector.create n in
  for i = 0 to n - 1 do
    Version_vector.set v i (get_int c)
  done;
  v

let encode_snapshot f (s : Wlog.snapshot) =
  encode_vector f s.snap_vector;
  put_int f s.snap_ncommitted;
  put_int f (List.length s.snap_values);
  List.iter
    (fun (conit, v) ->
      put_string f conit;
      put_float f v)
    s.snap_values;
  let keys = List.sort String.compare (Db.keys s.snap_db) in
  put_int f (List.length keys);
  List.iter
    (fun k ->
      put_string f k;
      encode_value f (Db.get s.snap_db k))
    keys

let decode_snapshot c =
  let snap_vector = decode_vector c in
  let snap_ncommitted = get_int c in
  let nvals = get_int c in
  check_items c ~n:nvals ~min_size:16 ~what:"snapshot value";
  let snap_values =
    List.init nvals (fun _ ->
        let conit = get_string c in
        (conit, get_float c))
  in
  let nkeys = get_int c in
  check_items c ~n:nkeys ~min_size:9 ~what:"snapshot key";
  let snap_db = Db.create [] in
  for _ = 1 to nkeys do
    let k = get_string c in
    Db.set snap_db k (decode_value c)
  done;
  { Wlog.snap_db; snap_vector; snap_ncommitted; snap_values }

(* ------------------------------------------------------------------ *)
(* Arithmetic sizes: the encoded byte count without materialising the
   encoding.  Must mirror the encoders above exactly — checked by a test
   against [snapshot_to_string]. *)

let vector_byte_size v = 8 * (1 + Version_vector.size v)

let snapshot_byte_size (s : Wlog.snapshot) =
  let vector = vector_byte_size s.snap_vector in
  let values =
    List.fold_left
      (fun acc (conit, _) -> acc + 8 + String.length conit + 8)
      8 s.snap_values
  in
  let db =
    List.fold_left
      (fun acc k -> acc + 8 + String.length k + Value.wire_size (Db.get s.snap_db k))
      8
      (Db.keys s.snap_db)
  in
  vector + 8 (* ncommitted *) + values + db

(* ------------------------------------------------------------------ *)
(* Whole messages *)

let to_string f x =
  let frame = Frame.create ~initial:256 () in
  f frame x;
  Frame.contents frame

let write_to_string w = to_string encode_write w
let write_of_string s = decode_write (cursor s)

let snapshot_to_string s = to_string encode_snapshot s
