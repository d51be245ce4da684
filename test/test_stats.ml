(* Stats, Table, Plot, Vec. *)

open Tact_util

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

let test_mean_variance () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check bool) "mean" true (feq (Stats.mean s) 5.0);
  Alcotest.(check bool) "variance (unbiased)" true
    (feq (Stats.variance s) (32.0 /. 7.0));
  Alcotest.(check int) "count" 8 (Stats.count s);
  Alcotest.(check bool) "total" true (feq (Stats.total s) 40.0);
  Alcotest.(check bool) "min" true (feq (Stats.min s) 2.0);
  Alcotest.(check bool) "max" true (feq (Stats.max s) 9.0)

let test_empty_stats () =
  let s = Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.mean s));
  Alcotest.(check bool) "variance 0" true (feq (Stats.variance s) 0.0)

let test_single_observation () =
  let s = Stats.create () in
  Stats.add s 3.0;
  Alcotest.(check bool) "mean" true (feq (Stats.mean s) 3.0);
  Alcotest.(check bool) "variance 0" true (feq (Stats.variance s) 0.0)

let test_welford_matches_naive () =
  let rng = Prng.create ~seed:99 in
  let xs = Array.init 500 (fun _ -> Prng.float rng 100.0) in
  let s = Stats.create () in
  Array.iter (Stats.add s) xs;
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. n in
  let var =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0)
  in
  Alcotest.(check bool) "mean matches" true (feq ~eps:1e-6 (Stats.mean s) mean);
  Alcotest.(check bool) "variance matches" true (feq ~eps:1e-6 (Stats.variance s) var)

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check bool) "p0" true (feq (Stats.percentile xs 0.0) 1.0);
  Alcotest.(check bool) "p50" true (feq (Stats.percentile xs 50.0) 3.0);
  Alcotest.(check bool) "p100" true (feq (Stats.percentile xs 100.0) 5.0);
  Alcotest.(check bool) "p25 interpolates" true (feq (Stats.percentile xs 25.0) 2.0);
  Alcotest.(check bool) "unsorted input ok" true
    (feq (Stats.percentile [| 5.0; 1.0; 3.0; 2.0; 4.0 |] 50.0) 3.0)

let test_percentile_edge () =
  Alcotest.(check bool) "empty nan" true (Float.is_nan (Stats.percentile [||] 50.0));
  Alcotest.(check bool) "singleton" true (feq (Stats.percentile [| 7.0 |] 99.0) 7.0);
  Alcotest.(check bool) "median alias" true (feq (Stats.median [| 1.0; 2.0 |]) 1.5)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "long-header"; "c" ] in
  Table.add_row t [ "1"; "2"; "3" ];
  Table.add_rowf t [ 1.5; 42.0; 0.333333 ];
  let r = Table.render t in
  Alcotest.(check bool) "has title" true (contains_sub r "demo");
  Alcotest.(check bool) "has header" true (contains_sub r "long-header");
  Alcotest.(check bool) "has float cell" true (contains_sub r "0.3333");
  Alcotest.(check int) "five lines" 5
    (List.length (String.split_on_char '\n' (String.trim r)))

let test_table_cell_f () =
  Alcotest.(check string) "integral" "42" (Table.cell_f 42.0);
  Alcotest.(check string) "fractional" "0.3333" (Table.cell_f (1.0 /. 3.0))

let test_plot_series () =
  let p =
    Plot.series ~title:"t" [ ("s", [ (0.0, 0.0); (1.0, 1.0); (2.0, 4.0) ]) ]
  in
  Alcotest.(check bool) "nonempty" true (String.length p > 100);
  let p2 = Plot.series ~title:"empty" [] in
  Alcotest.(check bool) "empty handled" true (String.length p2 > 0)

let test_vec () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 37 (Vec.get v 37);
  Alcotest.(check (list int)) "sub_list" [ 97; 98; 99 ] (Vec.sub_list v ~pos:97);
  Alcotest.(check (list int)) "sub_list past end" [] (Vec.sub_list v ~pos:200);
  Alcotest.(check int) "to_list length" 100 (List.length (Vec.to_list v));
  let acc = ref 0 in
  Vec.iter (fun x -> acc := !acc + x) v;
  Alcotest.(check int) "iter sums" 4950 !acc

let test_vec_get_out_of_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 1))

(* Popped elements must not stay reachable through their old slots.  The
   sizes keep the deque at or below 64 slots, where it never shrinks, so
   only the pops themselves can release anything. *)
let test_deque_releases_popped () =
  let n = 48 in
  let d = Deque.create ~filler:(ref (-1)) () in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let x = ref i in
    Weak.set weak i (Some x);
    Deque.push_back d x
  done;
  for _ = 1 to 8 do
    ignore (Deque.pop_front d)
  done;
  for _ = 1 to 8 do
    ignore (Deque.pop_back d)
  done;
  Deque.drop_front d 8;
  ignore (Deque.remove d 0);
  (* Live now: the elements pushed at indices 17 .. 39. *)
  Gc.full_major ();
  let popped i = i < 17 || i >= n - 8 in
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "element %d %s" i (if popped i then "released" else "held"))
      (not (popped i)) (Weak.check weak i)
  done;
  Alcotest.(check int) "live length" 23 (Deque.length d);
  Alcotest.(check int) "front" 17 !(Deque.peek_front d)

(* A FIFO of steady length reuses its array: once warm, pushing at the back
   and popping at the front allocates nothing, however many times the live
   range wraps through the array. *)
let test_deque_steady_fifo () =
  let d = Deque.create ~filler:0 () in
  let cycle () =
    Deque.push_back d 1;
    ignore (Deque.pop_front d)
  in
  for i = 1 to 1_000 do
    Deque.push_back d i
  done;
  for _ = 1 to 5_000 do
    cycle ()
  done;
  (* Arrays this large go straight to the major heap: count both heaps. *)
  let allocated () =
    let minor, _, major = Gc.counters () in
    minor +. major
  in
  let before = allocated () in
  for _ = 1 to 20_000 do
    cycle ()
  done;
  let words = allocated () -. before in
  Alcotest.(check int) "live length" 1_000 (Deque.length d);
  if words > 500.0 then
    Alcotest.failf "20,000 steady push/pop cycles allocated %.0f words" words

(* Every operation against a list model, with the live range wrapping round
   the array: mid insertions and removals shift across the wrap point, and
   growth and shrinking move a wrapped range. *)
let test_deque_ring_model () =
  let rng = Random.State.make [| 35 |] in
  let d = Deque.create ~filler:(-1) () in
  let model = ref [] in
  let check step =
    if Deque.to_list d <> !model then
      Alcotest.failf "step %d: deque [%s] diverges from model [%s]" step
        (String.concat ";" (List.map string_of_int (Deque.to_list d)))
        (String.concat ";" (List.map string_of_int !model))
  in
  let insert_at l i x = List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l) in
  for step = 1 to 20_000 do
    let n = List.length !model in
    (* Phases of net growth and net shrinkage, so the array grows, wraps
       and shrinks many times. *)
    let grow = step / 2_000 mod 2 = 0 in
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 when grow || n = 0 ->
      Deque.push_back d step;
      model := !model @ [ step ]
    | 0 | 1 | 2 | 3 when n > 0 ->
      Alcotest.(check int) "pop_front" (List.hd !model) (Deque.pop_front d);
      model := List.tl !model
    | 4 when n > 0 ->
      let last = List.nth !model (n - 1) in
      Alcotest.(check int) "pop_back" last (Deque.pop_back d);
      model := List.filteri (fun j _ -> j < n - 1) !model
    | 5 ->
      let i = Random.State.int rng (n + 1) in
      Deque.insert d i step;
      model := insert_at !model i step
    | 6 when n > 0 ->
      let i = Random.State.int rng n in
      Alcotest.(check int) "remove" (List.nth !model i) (Deque.remove d i);
      model := List.filteri (fun j _ -> j <> i) !model
    | 7 when n > 0 ->
      let k = Random.State.int rng (min n 8 + 1) in
      Deque.drop_front d k;
      model := List.filteri (fun j _ -> j >= k) !model
    | 8 when n > 0 ->
      let i = Random.State.int rng n in
      Deque.set d i (-step);
      model := List.mapi (fun j x -> if j = i then -step else x) !model
    | _ ->
      Deque.push_back d step;
      model := !model @ [ step ]);
    check step
  done;
  let sorted = Deque.create ~filler:0 () in
  (* A sorted deque whose live range wraps: [upper_bound] still bisects it. *)
  for i = 1 to 40 do Deque.push_back sorted i done;
  for _ = 1 to 30 do ignore (Deque.pop_front sorted) done;
  for i = 41 to 60 do Deque.push_back sorted i done;
  Alcotest.(check int) "upper_bound across the wrap" 15
    (Deque.upper_bound sorted ~cmp:compare 45)

(* The capacity policy: a ring that just grew does not shrink on the next
   removals, a shrink keeps room above the live count and never exceeds
   twice it, and the result never drops below what is live. *)
let test_deque_capacity_policy () =
  for len = 0 to 5_000 do
    let cap = Deque.grown len in
    if cap <= len then Alcotest.failf "grown %d = %d leaves no room" len cap;
    (* After growing, a quarter of the old length may be removed before it
       shrinks. *)
    let safe = len + 1 - (len / 4) in
    if Deque.shrunk ~cap ~len:safe <> cap then
      Alcotest.failf "a ring grown to %d shrinks at %d live" cap safe;
    for live = 0 to min len 70 do
      let c = Deque.shrunk ~cap:(max cap 65) ~len:(len - live) in
      if c < len - live then Alcotest.failf "shrunk to %d below %d live" c (len - live);
      if c <> max cap 65 && Deque.shrunk ~cap:c ~len:(len - live) <> c then
        Alcotest.failf "shrinking to %d is not stable at %d live" c (len - live)
    done
  done

let base_suite =
  [
    Alcotest.test_case "deque releases popped" `Quick test_deque_releases_popped;
    Alcotest.test_case "deque steady FIFO allocates nothing" `Quick test_deque_steady_fifo;
    Alcotest.test_case "mean/variance" `Quick test_mean_variance;
    Alcotest.test_case "empty stats" `Quick test_empty_stats;
    Alcotest.test_case "single observation" `Quick test_single_observation;
    Alcotest.test_case "welford matches naive" `Quick test_welford_matches_naive;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile edges" `Quick test_percentile_edge;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table cell_f" `Quick test_table_cell_f;
    Alcotest.test_case "plot series" `Quick test_plot_series;
    Alcotest.test_case "vec basics" `Quick test_vec;
    Alcotest.test_case "vec bounds" `Quick test_vec_get_out_of_bounds;
    Alcotest.test_case "deque ring matches a list" `Quick test_deque_ring_model;
    Alcotest.test_case "deque capacity policy" `Quick test_deque_capacity_policy;
  ]

let test_plot_single_point () =
  let p = Plot.series ~title:"one" [ ("s", [ (1.0, 1.0) ]) ] in
  Alcotest.(check bool) "degenerate ranges handled" true (String.length p > 0)

let test_plot_negative_values () =
  let p = Plot.series ~title:"neg" [ ("s", [ (0.0, -5.0); (1.0, 5.0) ]) ] in
  Alcotest.(check bool) "negative axis handled" true (String.length p > 0)

let test_table_arity_checked () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.(check bool) "arity mismatch trips assertion" true
    (try
       Table.add_row t [ "only-one" ];
       false
     with Assert_failure _ -> true)

let edge_suite =
  [
    Alcotest.test_case "plot single point" `Quick test_plot_single_point;
    Alcotest.test_case "plot negative values" `Quick test_plot_negative_values;
    Alcotest.test_case "table arity" `Quick test_table_arity_checked;
  ]

let suite = base_suite @ edge_suite
