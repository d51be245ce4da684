(* Budget allocation policies and CSN bookkeeping. *)

open Tact_protocols

let feq a b = Float.abs (a -. b) < 1e-9

let test_even_share () =
  let s =
    Budget.share Budget.Even ~bound:9.0 ~n:4 ~self:1 ~receiver:0
      ~rates:[| 0.0; 0.0; 0.0; 0.0 |]
  in
  Alcotest.(check bool) "bound/(n-1)" true (feq s 3.0)

let test_infinite_bound () =
  Alcotest.(check bool) "inf share" true
    (Budget.share Budget.Even ~bound:infinity ~n:3 ~self:1 ~receiver:0
       ~rates:[| 0.0; 0.0; 0.0 |]
    = infinity)

let test_proportional_share () =
  let rates = [| 8.0; 1.0; 1.0 |] in
  let hot =
    Budget.share (Budget.Proportional rates) ~bound:10.0 ~n:3 ~self:0 ~receiver:2
      ~rates:[| 0.0; 0.0; 0.0 |]
  in
  let cold =
    Budget.share (Budget.Proportional rates) ~bound:10.0 ~n:3 ~self:1 ~receiver:2
      ~rates:[| 0.0; 0.0; 0.0 |]
  in
  (* Shares toward receiver 2 are split over writers 0 and 1 (8:1). *)
  Alcotest.(check bool) "hot gets most" true (feq hot (10.0 *. 8.0 /. 9.0));
  Alcotest.(check bool) "cold gets little" true (feq cold (10.0 /. 9.0))

let test_adaptive_uses_live_rates () =
  let s =
    Budget.share Budget.Adaptive ~bound:10.0 ~n:3 ~self:0 ~receiver:2
      ~rates:[| 8.0; 2.0; 5.0 |]
  in
  Alcotest.(check bool) "live rates" true (feq s (10.0 *. 8.0 /. 10.0))

let test_zero_rates_fall_back_even () =
  let s =
    Budget.share Budget.Adaptive ~bound:10.0 ~n:3 ~self:0 ~receiver:2
      ~rates:[| 0.0; 0.0; 0.0 |]
  in
  Alcotest.(check bool) "even fallback" true (feq s 5.0)

(* Safety: for any policy and rate vector, the shares of all writers toward
   one receiver sum to at most the bound (within float noise). *)
let test_share_sum_bounded =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"sum of shares <= bound" ~count:300
       QCheck.(
         pair (float_range 0.1 100.0)
           (list_of_size (Gen.return 4) (float_range 0.0 10.0)))
       (fun (bound, rates_l) ->
         let rates = Array.of_list rates_l in
         let n = 4 in
         List.for_all
           (fun policy ->
             let receiver = 0 in
             let total = ref 0.0 in
             for self = 1 to n - 1 do
               total := !total +. Budget.share policy ~bound ~n ~self ~receiver ~rates
             done;
             !total <= bound +. 1e-6)
           [ Budget.Even; Budget.Adaptive; Budget.Proportional rates ]))

let test_policy_names () =
  Alcotest.(check string) "even" "even" (Budget.policy_name Budget.Even);
  Alcotest.(check string) "adaptive" "adaptive" (Budget.policy_name Budget.Adaptive);
  Alcotest.(check string) "proportional" "proportional"
    (Budget.policy_name (Budget.Proportional [||]))

(* --- Csn_buffer --------------------------------------------------------- *)

let id origin seq = { Tact_store.Write.origin; seq }

let test_csn_append_slice () =
  let b = Csn_buffer.create () in
  Csn_buffer.append b (id 0 1);
  Csn_buffer.append b (id 1 1);
  Alcotest.(check int) "known" 2 (Csn_buffer.known b);
  Alcotest.(check int) "get" 1 (Csn_buffer.get b 1).Tact_store.Write.origin;
  Alcotest.(check int) "full slice" 2 (List.length (Csn_buffer.slice_from b 0));
  Alcotest.(check int) "suffix slice" 1 (List.length (Csn_buffer.slice_from b 1));
  Alcotest.(check int) "empty slice" 0 (List.length (Csn_buffer.slice_from b 2))

let test_csn_offer_overlap () =
  let b = Csn_buffer.create () in
  ignore (Csn_buffer.offer b ~start:0 [ id 0 1; id 0 2 ]);
  ignore (Csn_buffer.offer b ~start:1 [ id 0 2; id 0 3 ]);
  Alcotest.(check int) "overlap merged" 3 (Csn_buffer.known b)

let test_csn_offer_gap_buffered () =
  let b = Csn_buffer.create () in
  ignore (Csn_buffer.offer b ~start:2 [ id 0 3; id 0 4 ]);
  Alcotest.(check int) "gapped slice parked" 0 (Csn_buffer.known b);
  ignore (Csn_buffer.offer b ~start:0 [ id 0 1; id 0 2 ]);
  Alcotest.(check int) "drained through" 4 (Csn_buffer.known b);
  Alcotest.(check int) "order correct" 4 (Csn_buffer.get b 3).Tact_store.Write.seq

let test_csn_gap_behind_growth () =
  let b = Csn_buffer.create () in
  ignore (Csn_buffer.offer b ~start:3 [ id 0 4 ]);
  ignore (Csn_buffer.offer b ~start:1 [ id 0 2; id 0 3 ]);
  Alcotest.(check int) "still waiting for prefix" 0 (Csn_buffer.known b);
  ignore (Csn_buffer.offer b ~start:0 [ id 0 1 ]);
  Alcotest.(check int) "everything drains" 4 (Csn_buffer.known b)

let test_csn_out_of_order_replay =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"csn slices in any order reconstruct the sequence"
       ~count:200
       QCheck.(int_bound 1000)
       (fun seed ->
         let rng = Tact_util.Prng.create ~seed in
         let total = 1 + Tact_util.Prng.int rng 20 in
         let ids = List.init total (fun i -> id 0 (i + 1)) in
         (* Random overlapping slices covering [0,total). *)
         let slices = ref [] in
         let covered = ref 0 in
         while !covered < total do
           let start = max 0 (!covered - Tact_util.Prng.int rng 3) in
           let len = 1 + Tact_util.Prng.int rng 5 in
           let stop = min total (start + len) in
           slices := (start, List.filteri (fun i _ -> i >= start && i < stop) ids) :: !slices;
           if stop > !covered then covered := stop
         done;
         let arr = Array.of_list !slices in
         Tact_util.Prng.shuffle rng arr;
         let b = Csn_buffer.create () in
         let dropped =
           Array.fold_left (fun n (start, slice) -> n + Csn_buffer.offer b ~start slice) 0 arr
         in
         dropped = 0
         && Csn_buffer.known b = total
         && List.for_all2 ( = ) (Csn_buffer.slice_from b 0) ids))

let suite =
  [
    Alcotest.test_case "even share" `Quick test_even_share;
    Alcotest.test_case "infinite bound" `Quick test_infinite_bound;
    Alcotest.test_case "proportional share" `Quick test_proportional_share;
    Alcotest.test_case "adaptive live rates" `Quick test_adaptive_uses_live_rates;
    Alcotest.test_case "zero rates fallback" `Quick test_zero_rates_fall_back_even;
    test_share_sum_bounded;
    Alcotest.test_case "policy names" `Quick test_policy_names;
    Alcotest.test_case "csn append/slice" `Quick test_csn_append_slice;
    Alcotest.test_case "csn offer overlap" `Quick test_csn_offer_overlap;
    Alcotest.test_case "csn gap buffered" `Quick test_csn_offer_gap_buffered;
    Alcotest.test_case "csn gap behind growth" `Quick test_csn_gap_behind_growth;
    test_csn_out_of_order_replay;
  ]
