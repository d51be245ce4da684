(* Growable ring buffer: O(1) amortised push_back and pop_front, O(log n)
   binary search, O(distance-to-tail) mid insertion.  Logical index [i]
   lives at array slot [wrap ~cap (head + i)], so the live range may run off
   the end of the array and continue at slot 0: a FIFO of steady length
   never copies and, once warm, allocates nothing, whatever slack the array
   has.  The capacity policy ({!grown}, {!shrunk}) is shared with the write
   log's per-origin columns, which are parallel rings.  Every slot outside
   the live range holds the caller's [filler], so a popped element is never
   pinned by the array. *)

type 'a t = {
  mutable data : 'a array;
  mutable head : int;
  mutable len : int;
  filler : 'a;
}

(* ------------------------------------------------------------------ *)
(* Capacity policy                                                     *)

(* The slot of position [p] (below [2 * cap]) of a ring of capacity
   [cap]. *)
let wrap ~cap p = if p >= cap then p - cap else p

(* A full ring of [len] elements grows by half (to 16 at least). *)
let grown len = max 16 (len + (len / 2))

(* After removals: a ring past 64 slots and less than half full shrinks to
   a quarter above its live count (16 at least).  Memory so stays within
   twice the live count, and every reallocation is paid for by operations
   proportional to the elements it copies: a quarter of the live count in
   pushes to regrow, the removal of a quarter of it or more to shrink
   again. *)
let shrunk ~cap ~len =
  if cap > 64 && 2 * len < cap then max 16 (len + (len / 4)) else cap

(* ------------------------------------------------------------------ *)

let create ~filler () = { data = [||]; head = 0; len = 0; filler }

let length t = t.len
let is_empty t = t.len = 0

let slot t i = wrap ~cap:(Array.length t.data) (t.head + i)

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Deque.get: index out of bounds";
  t.data.(slot t i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Deque.set: index out of bounds";
  t.data.(slot t i) <- x

(* Reallocate at capacity [cap] (at least [len]), the live range moved to
   slot 0. *)
let realloc t cap =
  let a = Array.make cap t.filler in
  let first = min t.len (Array.length t.data - t.head) in
  Array.blit t.data t.head a 0 first;
  Array.blit t.data 0 a first (t.len - first);
  t.data <- a;
  t.head <- 0

let ensure_back t = if t.len = Array.length t.data then realloc t (grown t.len)

(* After removals from the front or middle: an empty ring restarts at slot
   0, and a mostly empty one shrinks. *)
let shrink t =
  if t.len = 0 then t.head <- 0;
  let cap = shrunk ~cap:(Array.length t.data) ~len:t.len in
  if cap <> Array.length t.data then realloc t cap

let push_back t x =
  ensure_back t;
  t.data.(slot t t.len) <- x;
  t.len <- t.len + 1

let peek_front t =
  if t.len = 0 then invalid_arg "Deque.peek_front: empty";
  t.data.(t.head)

let pop_front t =
  if t.len = 0 then invalid_arg "Deque.pop_front: empty";
  let x = t.data.(t.head) in
  t.data.(t.head) <- t.filler;
  t.head <- slot t 1;
  t.len <- t.len - 1;
  shrink t;
  x

let pop_back t =
  if t.len = 0 then invalid_arg "Deque.pop_back: empty";
  let p = slot t (t.len - 1) in
  let x = t.data.(p) in
  t.data.(p) <- t.filler;
  t.len <- t.len - 1;
  x

let drop_front t n =
  if n < 0 || n > t.len then invalid_arg "Deque.drop_front: bad count";
  let first = min n (Array.length t.data - t.head) in
  Array.fill t.data t.head first t.filler;
  Array.fill t.data 0 (n - first) t.filler;
  t.head <- slot t n;
  t.len <- t.len - n;
  shrink t

(* Shift logical positions [i .. j-1] one place toward the back ([d = 1])
   or the front ([d = -1]), in the order that reads each slot before
   overwriting it. *)
let shift t i j d =
  if d > 0 then
    for k = j - 1 downto i do
      t.data.(slot t (k + 1)) <- t.data.(slot t k)
    done
  else
    for k = i to j - 1 do
      t.data.(slot t (k - 1)) <- t.data.(slot t k)
    done

(* Insert at logical index [i], shifting the tail side right: O(len - i),
   which is O(1) for the common land-at-the-tail case. *)
let insert t i x =
  if i < 0 || i > t.len then invalid_arg "Deque.insert: index out of bounds";
  ensure_back t;
  shift t i t.len 1;
  t.data.(slot t i) <- x;
  t.len <- t.len + 1

(* Remove the element at logical index [i], shifting the tail side left. *)
let remove t i =
  if i < 0 || i >= t.len then invalid_arg "Deque.remove: index out of bounds";
  let x = t.data.(slot t i) in
  shift t (i + 1) t.len (-1);
  t.len <- t.len - 1;
  t.data.(slot t t.len) <- t.filler;
  x

let clear t =
  t.data <- [||];
  t.head <- 0;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(slot t i)
  done

let to_list t = List.init t.len (fun i -> t.data.(slot t i))

(* Index of the first element for which [cmp elt probe > 0] — the insertion
   point keeping a sorted deque sorted (stable for equal keys).  O(log n). *)
let upper_bound t ~cmp probe =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp t.data.(slot t mid) probe > 0 then hi := mid else lo := mid + 1
  done;
  !lo
