(* Log-bucketed latency histogram, HDR style.

   Bucket [i] covers [lo * g^i, lo * g^(i+1)) with g = 1 + 1/128, so every
   recorded value is resolved to within 0.8% over twelve decades, and the
   tail keeps that resolution (a uniform-bucket histogram cannot).  Each
   bucket also keeps the sum of its samples: a quantile reports the mean of
   the samples in the bucket that holds its rank, which is within the
   bucket's resolution and does not snap every run onto the same bucket
   boundary.  Values at or below [lo] land in an underflow bucket. *)

let lo = 1e-6
let growth = 1.0 +. (1.0 /. 128.0)
let log_growth = log growth
let nbuckets = int_of_float (ceil (log 1e12 /. log_growth)) + 1

type t = {
  counts : int array;  (* slot 0 is the underflow bucket *)
  sums : float array;
  mutable count : int;
  mutable max : float;
}

let create () =
  { counts = Array.make (nbuckets + 1) 0; sums = Array.make (nbuckets + 1) 0.0;
    count = 0; max = 0.0 }

let slot v =
  if v <= lo then 0
  else min nbuckets (1 + int_of_float (log (v /. lo) /. log_growth))

let add t v =
  let i = slot v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.sums.(i) <- t.sums.(i) +. v;
  t.count <- t.count + 1;
  if v > t.max then t.max <- v

let merge_into dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  Array.iteri (fun i s -> dst.sums.(i) <- dst.sums.(i) +. s) src.sums;
  dst.count <- dst.count + src.count;
  if src.max > dst.max then dst.max <- src.max

(* Slot holding the sample of rank ceil(q * count), 1-based. *)
let rank_slot t q =
  let rank = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
  let rec go i acc =
    let acc = acc + t.counts.(i) in
    if acc >= rank || i = nbuckets then i else go (i + 1) acc
  in
  go 0 0

let quantile t q =
  if t.count = 0 then 0.0
  else
    let i = rank_slot t q in
    t.sums.(i) /. float_of_int t.counts.(i)

(* Samples in buckets above the one holding the quantile's rank. *)
let beyond t q =
  if t.count = 0 then 0
  else begin
    let i = rank_slot t q in
    let n = ref 0 in
    for j = i + 1 to nbuckets do
      n := !n + t.counts.(j)
    done;
    !n
  end

let summary t =
  Printf.sprintf "n=%d p50=%.4f p99=%.4f beyond_p99=%d max=%.4f" t.count
    (quantile t 0.5) (quantile t 0.99) (beyond t 0.99) t.max

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Array.fill t.sums 0 (Array.length t.sums) 0.0;
  t.count <- 0;
  t.max <- 0.0

(* Sparse text form, "slot:count:sum" joined by ',', for shipping a
   histogram between processes; "-" when empty. *)
let to_string t =
  let parts = ref [] in
  for i = nbuckets downto 0 do
    if t.counts.(i) > 0 then
      parts := Printf.sprintf "%d:%d:%h" i t.counts.(i) t.sums.(i) :: !parts
  done;
  if !parts = [] then "-" else String.concat "," !parts

let add_string t s =
  if s <> "-" then
    List.iter
      (fun part ->
        Scanf.sscanf part "%d:%d:%h" (fun i c sum ->
            t.counts.(i) <- t.counts.(i) + c;
            t.sums.(i) <- t.sums.(i) +. sum;
            t.count <- t.count + c;
            let mean = sum /. float_of_int c in
            if mean > t.max then t.max <- mean))
      (String.split_on_char ',' s)
