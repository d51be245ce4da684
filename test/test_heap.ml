(* The binary min-heap shared by the simulator's engine and the live loop's
   timers. *)

open Tact_util

let test_heap_order () =
  let h = Heap.create () in
  List.iteri
    (fun i t -> Heap.push h ~time:t ~seq:i i)
    [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (t, _, _) ->
      order := t :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 1e-9))) "ascending" [ 1.0; 2.0; 3.0; 4.0; 5.0 ]
    (List.rev !order)

let test_heap_tiebreak () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~time:1.0 ~seq:i i
  done;
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, _, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "fifo among ties" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !order)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek_time h = None)

(* Popped events must not stay reachable from the queue: after a burst
   drains, the heap holds (almost) nothing, and shrinking on the way down
   keeps the pop order intact. *)
let test_heap_releases_drained () =
  let h = Heap.create () in
  let prng = Prng.create ~seed:11 in
  for i = 0 to 99_999 do
    Heap.push h ~time:(Prng.float prng 100.0) ~seq:i (ref i)
  done;
  let words () = Obj.reachable_words (Obj.repr h) in
  let full = words () in
  let last = ref (neg_infinity, -1) in
  let sorted = ref true in
  let pop () =
    match Heap.pop h with
    | Some (t, s, _) ->
      if compare (t, s) !last < 0 then sorted := false;
      last := (t, s)
    | None -> Alcotest.fail "heap drained early"
  in
  for _ = 1 to 90_000 do pop () done;
  (* Refill above the drained minimum, then drain everything. *)
  for i = 100_000 to 109_999 do
    Heap.push h ~time:(100.0 +. Prng.float prng 100.0) ~seq:i (ref i)
  done;
  while not (Heap.is_empty h) do pop () done;
  Alcotest.(check bool) "pops stay in (time, seq) order" true !sorted;
  let drained = words () in
  if drained > 1_000 then
    Alcotest.failf "drained heap still reaches %d words (full: %d)" drained full

let test_heap_random_drain_sorted =
  let prop =
    QCheck.Test.make ~name:"heap drains sorted" ~count:200
      QCheck.(list (pair (float_bound_exclusive 1000.0) small_nat))
      (fun entries ->
        let h = Heap.create () in
        List.iteri (fun i (t, v) -> Heap.push h ~time:t ~seq:i v) entries;
        let rec drain acc =
          match Heap.pop h with
          | Some (t, _, _) -> drain (t :: acc)
          | None -> List.rev acc
        in
        let times = drain [] in
        let rec sorted = function
          | a :: (b :: _ as tl) -> a <= b && sorted tl
          | _ -> true
        in
        sorted times && List.length times = List.length entries)
  in
  QCheck_alcotest.to_alcotest prop

let suite =
  [
    Alcotest.test_case "heap order" `Quick test_heap_order;
    Alcotest.test_case "heap tiebreak" `Quick test_heap_tiebreak;
    Alcotest.test_case "heap empty" `Quick test_heap_empty;
    Alcotest.test_case "heap releases drained events" `Quick
      test_heap_releases_drained;
    test_heap_random_drain_sorted;
  ]
