(* Shape assertions over the experiment battery: for every table/figure, the
   qualitative result the paper predicts must hold in quick mode too.  (The
   bench harness prints the full tables; these tests pin the shapes.) *)

open Tact_experiments

let test_e2_extremes_shape () =
  let strong = E02_extremes.run_side ~quick:true ~strong:true ~seed:11 () in
  let weak = E02_extremes.run_side ~quick:true ~strong:false ~seed:11 () in
  Alcotest.(check int) "strong: zero anomalies" 0 strong.anomalies;
  Alcotest.(check int) "strong: zero violations" 0 strong.violations;
  Alcotest.(check bool) "strong: ext-compatible commit order" true
    strong.committed_ext_compatible;
  Alcotest.(check bool) "weak: anomalous under concurrency" true (weak.anomalies > 0);
  Alcotest.(check bool) "strong costs latency" true
    (strong.write_latency > weak.write_latency);
  Alcotest.(check bool) "strong costs traffic" true (strong.messages > weak.messages)

let test_e3_airline_shape () =
  let run b =
    Tact_apps.Airline.run ~seed:5 ~n:4 ~flights:2 ~seats:150 ~rate:2.0
      ~duration:25.0 ~ne_rel:b ()
  in
  let tight = run 0.05 and loose = run infinity in
  Alcotest.(check bool) "conflict rate monotone in bound" true
    (tight.conflict_rate <= loose.conflict_rate);
  Alcotest.(check bool) "NE monotone in bound" true
    (tight.mean_rel_ne < loose.mean_rel_ne)

let test_e4_bboard_ne_shape () =
  let run b =
    Tact_apps.Bboard.run ~seed:3 ~n:4 ~post_rate:2.0 ~read_rate:0.5
      ~duration:15.0 ~ne_bound:b ~antientropy:None ()
  in
  let b1 = run 1.0 and b8 = run 8.0 and b32 = run 32.0 in
  Alcotest.(check bool) "traffic falls with bound" true
    (b1.messages > b8.messages && b8.messages >= b32.messages);
  Alcotest.(check bool) "error rises with bound" true
    (b1.mean_observed_ne <= b8.mean_observed_ne
    && b8.mean_observed_ne <= b32.mean_observed_ne +. 1e-9);
  List.iter
    (fun (r : Tact_apps.Bboard.result) ->
      Alcotest.(check int) "no violations" 0 r.violations)
    [ b1; b8; b32 ]

let test_e5_bboard_oe_shape () =
  let run b =
    Tact_apps.Bboard.run ~seed:9 ~n:4 ~post_rate:2.0 ~read_rate:1.0
      ~duration:15.0 ~antientropy:(Some 2.0)
      ~read_bounds:(Tact_core.Bounds.make ~oe:b ()) ()
  in
  let tight = run 0.0 and loose = run infinity in
  Alcotest.(check bool) "tight OE costs read latency" true
    (tight.mean_read_latency > loose.mean_read_latency);
  Alcotest.(check bool) "loose OE reads are local" true
    (loose.mean_read_latency < 1e-9);
  Alcotest.(check int) "tight run clean" 0 tight.violations

let test_e6_bboard_st_shape () =
  let run b =
    Tact_apps.Bboard.run ~seed:21 ~n:4 ~post_rate:2.0 ~read_rate:1.0
      ~duration:15.0 ~antientropy:(Some 5.0)
      ~read_bounds:(Tact_core.Bounds.make ~st:b ()) ()
  in
  let tight = run 0.5 and loose = run infinity in
  Alcotest.(check bool) "tight ST pulls more" true (tight.st_pulls > loose.st_pulls);
  Alcotest.(check bool) "tight ST sees fresher data" true
    (tight.mean_observed_ne <= loose.mean_observed_ne);
  Alcotest.(check int) "tight run clean" 0 tight.violations

let test_e7_qos_shape () =
  let run b = Tact_apps.Qos.run ~seed:7 ~n:4 ~rate:4.0 ~duration:15.0 ~ne_bound:b () in
  let tight = run 1.0 and loose = run infinity in
  Alcotest.(check bool) "routing quality monotone" true
    (tight.misroute_rate < loose.misroute_rate)

let test_e9_all_hold () =
  List.iter
    (fun (r : E09_models.row) ->
      Alcotest.(check bool) (r.model ^ ": " ^ r.property) true r.holds)
    (E09_models.rows ~quick:true ())

let test_e11_budget_shape () =
  (* Rendered output includes all three policies. *)
  let out = E11_budget.run ~quick:true () in
  Alcotest.(check bool) "mentions adaptive" true
    (String.length out > 0
    && List.exists
         (fun line ->
           String.length line >= 8 && String.sub line 0 8 = "adaptive")
         (String.split_on_char '\n' out))

let test_e12_commit_shape () =
  (* Re-run the scenario pair directly for assertions. *)
  let out = E12_commit.run ~quick:true () in
  Alcotest.(check bool) "rendered" true (String.length out > 200)

(* E22 smoke: a scaled-down sweep point must converge with per-replica log
   memory pinned to the truncation horizon — retained committed prefix never
   exceeds [keep], and total held writes stay at horizon + commit lag, far
   below the run's write count. *)
let test_e22_bounded_memory () =
  let r =
    E22_scale.run_one ~n:12 ~writers:1 ~total:8_000 ~keep:300 ~sample:1.0
  in
  Alcotest.(check bool) "converged" true r.converged;
  Alcotest.(check int) "all writes submitted" 8_000 r.writes;
  Alcotest.(check bool) "retained prefix at the horizon" true
    (r.max_retained <= 300);
  Alcotest.(check bool) "held writes bounded by horizon + lag" true
    (r.max_known < 4_000);
  Alcotest.(check bool) "batches flowed" true (r.batches > 0)

(* E23 smoke: a quick sweep point with partial interest must converge per
   interest set with zero cross-shard leaks, and narrowing the overlap must
   cut sync traffic — the partial-replication claim in miniature. *)
let test_e23_partial_replication () =
  let full = E23_shards.run_one ~n:8 ~shards:4 ~overlap:4 ~total:1_500 ~jobs:1 in
  let narrow =
    E23_shards.run_one ~n:8 ~shards:4 ~overlap:1 ~total:1_500 ~jobs:1
  in
  Alcotest.(check bool) "full overlap converged" true full.converged;
  Alcotest.(check bool) "narrow overlap converged" true narrow.converged;
  Alcotest.(check int) "no leaks (full)" 0 full.leaks;
  Alcotest.(check int) "no leaks (narrow)" 0 narrow.leaks;
  Alcotest.(check bool) "membership shrinks with overlap" true
    (narrow.avg_members < full.avg_members);
  Alcotest.(check bool) "traffic falls with overlap" true
    (narrow.messages < full.messages);
  (* Shard engines on two domains: every row field, the write count
     included, must match the one-domain run. *)
  Alcotest.(check bool) "same row at -j 2" true
    (E23_shards.run_one ~n:8 ~shards:4 ~overlap:1 ~total:1_500 ~jobs:2
    = narrow)

let test_registry_complete () =
  Alcotest.(check int) "23 experiments" 23 (List.length Registry.all);
  let found key (e : Registry.entry) =
    match Registry.find key with Some x -> x.id = e.id | None -> false
  in
  List.iter
    (fun (e : Registry.entry) ->
      Alcotest.(check bool) ("find by id " ^ e.id) true (found e.id e);
      Alcotest.(check bool) ("find by name " ^ e.name) true (found e.name e);
      Alcotest.(check bool) "case insensitive" true
        (found (String.lowercase_ascii e.id) e))
    Registry.all;
  Alcotest.(check bool) "unknown rejected" true
    (match Registry.find "E99" with None -> true | Some _ -> false)

let base_suite =
  [
    Alcotest.test_case "E2 extremes shape" `Slow test_e2_extremes_shape;
    Alcotest.test_case "E3 airline shape" `Slow test_e3_airline_shape;
    Alcotest.test_case "E4 bboard NE shape" `Slow test_e4_bboard_ne_shape;
    Alcotest.test_case "E5 bboard OE shape" `Slow test_e5_bboard_oe_shape;
    Alcotest.test_case "E6 bboard ST shape" `Slow test_e6_bboard_st_shape;
    Alcotest.test_case "E7 qos shape" `Slow test_e7_qos_shape;
    Alcotest.test_case "E9 all hold" `Slow test_e9_all_hold;
    Alcotest.test_case "E11 budget shape" `Slow test_e11_budget_shape;
    Alcotest.test_case "E12 commit shape" `Slow test_e12_commit_shape;
    Alcotest.test_case "E22 bounded memory" `Slow test_e22_bounded_memory;
    Alcotest.test_case "E23 partial replication" `Slow
      test_e23_partial_replication;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
  ]

(* E1 is fully deterministic: pin its rendered output exactly (a golden
   regression for both the metrics and the table renderer). *)
let test_e1_golden () =
  let out = E01_fig4.run () in
  let expected_lines =
    [ "F1     1             1   1 (= stime(R2) - rtime(W5))";
      "F2     0             1   0                          " ]
  in
  let lines = String.split_on_char '\n' out in
  List.iter
    (fun want ->
      Alcotest.(check bool)
        (Printf.sprintf "golden line %S present" (String.trim want))
        true (List.mem want lines))
    expected_lines

let golden_suite =
  [ Alcotest.test_case "E1 golden output" `Quick test_e1_golden ]

let suite = base_suite @ golden_suite
