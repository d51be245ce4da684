(* Growable array with a head offset: O(1) amortised push_back and pop_front,
   O(log n) binary search, O(distance-to-tail) mid insertion.  The front slack
   left by pops is reclaimed by sliding the live range left when the back
   runs out of room, so a FIFO of steady length allocates nothing; the array
   shrinks only once it exceeds four times the live length, so memory stays
   within a constant factor of the live contents.  Every slot outside the
   live range holds the caller's [filler], so a popped element is never
   pinned by the array. *)

type 'a t = {
  mutable data : 'a array;
  mutable head : int;
  mutable len : int;
  filler : 'a;
}

let create ~filler () = { data = [||]; head = 0; len = 0; filler }

let length t = t.len
let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Deque.get: index out of bounds";
  t.data.(t.head + i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Deque.set: index out of bounds";
  t.data.(t.head + i) <- x

(* Reallocate so that [t.len + extra] elements fit starting at head 0. *)
let realloc t extra =
  if t.len > 0 then begin
    let cap = max 16 (max (t.len + extra) (2 * t.len)) in
    let a = Array.make cap t.filler in
    Array.blit t.data t.head a 0 t.len;
    t.data <- a;
    t.head <- 0
  end
  else begin
    if Array.length t.data > 64 then t.data <- [||];
    t.head <- 0
  end

(* Make room for one more element at the back.  When at least half the
   array is free, slide the live range to the front instead of growing: the
   slide copies [len] elements and frees [len] or more slots at the back, so
   its cost is amortised over the pushes that fill them. *)
let ensure_back t =
  if Array.length t.data = 0 then begin
    t.data <- Array.make 16 t.filler;
    t.head <- 0
  end
  else if t.head + t.len >= Array.length t.data then
    if t.head > 0 && 2 * t.len <= Array.length t.data then begin
      Array.blit t.data t.head t.data 0 t.len;
      Array.fill t.data t.len t.head t.filler;
      t.head <- 0
    end
    else realloc t 1

(* After front pops: an empty deque restarts at slot 0, and an array past
   64 slots and four times the live length is reallocated at twice it. *)
let shrink t =
  if t.len = 0 then t.head <- 0;
  if Array.length t.data > 64 && Array.length t.data > 4 * t.len then realloc t 0

let push_back t x =
  ensure_back t;
  t.data.(t.head + t.len) <- x;
  t.len <- t.len + 1

let peek_front t =
  if t.len = 0 then invalid_arg "Deque.peek_front: empty";
  t.data.(t.head)

let pop_front t =
  if t.len = 0 then invalid_arg "Deque.pop_front: empty";
  let x = t.data.(t.head) in
  t.data.(t.head) <- t.filler;
  t.head <- t.head + 1;
  t.len <- t.len - 1;
  shrink t;
  x

let pop_back t =
  if t.len = 0 then invalid_arg "Deque.pop_back: empty";
  let p = t.head + t.len - 1 in
  let x = t.data.(p) in
  t.data.(p) <- t.filler;
  t.len <- t.len - 1;
  x

let drop_front t n =
  if n < 0 || n > t.len then invalid_arg "Deque.drop_front: bad count";
  Array.fill t.data t.head n t.filler;
  t.head <- t.head + n;
  t.len <- t.len - n;
  shrink t

(* Insert at logical index [i], shifting the tail side right: O(len - i),
   which is O(1) for the common land-at-the-tail case. *)
let insert t i x =
  if i < 0 || i > t.len then invalid_arg "Deque.insert: index out of bounds";
  ensure_back t;
  let p = t.head + i in
  Array.blit t.data p t.data (p + 1) (t.len - i);
  t.data.(p) <- x;
  t.len <- t.len + 1

(* Remove the element at logical index [i], shifting the tail side left. *)
let remove t i =
  if i < 0 || i >= t.len then invalid_arg "Deque.remove: index out of bounds";
  let p = t.head + i in
  let x = t.data.(p) in
  Array.blit t.data (p + 1) t.data p (t.len - i - 1);
  t.len <- t.len - 1;
  t.data.(t.head + t.len) <- t.filler;
  x

let clear t =
  t.data <- [||];
  t.head <- 0;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(t.head + i)
  done

let to_list t = List.init t.len (fun i -> t.data.(t.head + i))

(* Index of the first element for which [cmp elt probe > 0] — the insertion
   point keeping a sorted deque sorted (stable for equal keys).  O(log n). *)
let upper_bound t ~cmp probe =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp t.data.(t.head + mid) probe > 0 then hi := mid else lo := mid + 1
  done;
  !lo
