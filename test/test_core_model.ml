(* Bounds, Conit, Metrics, Ecg, Access — the paper's formal layer. *)

open Tact_store
open Tact_core

let feq a b = Float.abs (a -. b) < 1e-9

let w ?(nw = 1.0) ?(ow = 1.0) ~origin ~seq ~t conits =
  Write.make ~id:{ origin; seq } ~accept_time:t ~op:Op.Noop
    ~affects:(List.map (fun c -> { Write.conit = c; nweight = nw; oweight = ow }) conits)

(* --- Bounds ----------------------------------------------------------- *)

let test_bounds_extremes () =
  Alcotest.(check bool) "weak is weak" true (Bounds.is_weak Bounds.weak);
  Alcotest.(check bool) "strong is strong" true (Bounds.is_strong Bounds.strong);
  Alcotest.(check bool) "weak not strong" false (Bounds.is_strong Bounds.weak);
  Alcotest.(check bool) "default unconstrained" true (Bounds.is_weak (Bounds.make ()))

let test_bounds_within () =
  let b = Bounds.make ~ne:5.0 ~oe:2.0 ~st:10.0 () in
  Alcotest.(check bool) "inside" true
    (Bounds.within ~ne:5.0 ~ne_rel:0.0 ~oe:2.0 ~st:10.0 b);
  Alcotest.(check bool) "ne breach" false
    (Bounds.within ~ne:5.1 ~ne_rel:0.0 ~oe:0.0 ~st:0.0 b);
  Alcotest.(check bool) "oe breach" false
    (Bounds.within ~ne:0.0 ~ne_rel:0.0 ~oe:3.0 ~st:0.0 b);
  Alcotest.(check bool) "st breach" false
    (Bounds.within ~ne:0.0 ~ne_rel:0.0 ~oe:0.0 ~st:11.0 b);
  Alcotest.(check bool) "ne_rel unconstrained" true
    (Bounds.within ~ne:0.0 ~ne_rel:1e9 ~oe:0.0 ~st:0.0 b)

let test_bounds_tighten () =
  let a = Bounds.make ~ne:5.0 ~st:1.0 () in
  let b = Bounds.make ~ne:2.0 ~oe:3.0 () in
  let t = Bounds.tighten a b in
  Alcotest.(check bool) "componentwise min" true
    (feq t.Bounds.ne 2.0 && feq t.Bounds.oe 3.0 && feq t.Bounds.st 1.0
    && t.Bounds.ne_rel = infinity)

let test_bounds_to_string () =
  Alcotest.(check string) "render" "(ne=1 ne_rel=inf oe=0 st=inf)"
    (Bounds.to_string (Bounds.make ~ne:1.0 ~oe:0.0 ()))

(* --- Conit ------------------------------------------------------------ *)

let test_conit_declare () =
  let c = Conit.declare ~ne_bound:3.0 ~initial_value:100.0 "seats" in
  Alcotest.(check string) "name" "seats" c.Conit.name;
  Alcotest.(check bool) "ne bound" true (feq c.Conit.ne_bound 3.0);
  Alcotest.(check bool) "rel default inf" true (c.Conit.ne_rel_bound = infinity);
  Alcotest.(check bool) "initial" true (feq c.Conit.initial_value 100.0);
  let u = Conit.unconstrained "x" in
  Alcotest.(check bool) "unconstrained" true
    (u.Conit.ne_bound = infinity && feq u.Conit.initial_value 0.0)

(* --- Metrics ------------------------------------------------------------ *)

let test_metrics_value () =
  let h = [ w ~nw:2.0 ~origin:0 ~seq:1 ~t:1.0 [ "a" ]; w ~nw:(-0.5) ~origin:0 ~seq:2 ~t:2.0 [ "a"; "b" ] ] in
  Alcotest.(check bool) "signed sum" true (feq (Metrics.value h "a") 1.5);
  Alcotest.(check bool) "per conit" true (feq (Metrics.value h "b") (-0.5));
  Alcotest.(check bool) "absent" true (feq (Metrics.value h "z") 0.0)

let test_metrics_numerical_error () =
  let actual = [ w ~origin:0 ~seq:1 ~t:1.0 [ "a" ]; w ~origin:0 ~seq:2 ~t:2.0 [ "a" ] ] in
  let observed = [ List.hd actual ] in
  Alcotest.(check bool) "ne 1" true (feq (Metrics.numerical_error ~actual ~observed "a") 1.0);
  Alcotest.(check bool) "rel 0.5" true (feq (Metrics.relative_error ~actual ~observed "a") 0.5);
  Alcotest.(check bool) "equal views 0" true
    (feq (Metrics.numerical_error ~actual ~observed:actual "a") 0.0)

let test_metrics_relative_edge () =
  let a = [ w ~nw:1.0 ~origin:0 ~seq:1 ~t:1.0 [ "a" ] ] in
  let a_neg = [ w ~nw:(-1.0) ~origin:0 ~seq:1 ~t:1.0 [ "a" ] ] in
  Alcotest.(check bool) "both empty -> 0" true
    (feq (Metrics.relative_error ~actual:[] ~observed:[] "a") 0.0);
  Alcotest.(check bool) "actual 0, observed not -> inf" true
    (Metrics.relative_error ~actual:[] ~observed:a "a" = infinity);
  Alcotest.(check bool) "negative actual uses |value|" true
    (feq (Metrics.relative_error ~actual:a_neg ~observed:[] "a") 1.0)

let test_metrics_projection () =
  let h =
    [ w ~origin:0 ~seq:1 ~t:1.0 [ "a" ]; w ~origin:0 ~seq:2 ~t:2.0 [ "b" ];
      w ~origin:0 ~seq:3 ~t:3.0 [ "a"; "b" ] ]
  in
  Alcotest.(check int) "projection filters" 2 (List.length (Metrics.projection h "a"));
  Alcotest.(check int) "order preserved" 1
    ((List.hd (Metrics.projection h "a")).Write.id.Write.seq)

let test_metrics_oe_lcp () =
  let w1 = w ~origin:0 ~seq:1 ~t:1.0 [ "a" ] in
  let w2 = w ~origin:1 ~seq:1 ~t:2.0 [ "a" ] in
  let w3 = w ~origin:2 ~seq:1 ~t:3.0 [ "a" ] in
  let ecg = [ w1; w2; w3 ] in
  (* Identical prefix: zero. *)
  Alcotest.(check bool) "prefix 0" true (feq (Metrics.order_error_lcp ~ecg ~local:[ w1; w2 ] "a") 0.0);
  (* Swapped order: both beyond the (empty) common prefix. *)
  Alcotest.(check bool) "swap costs 2" true
    (feq (Metrics.order_error_lcp ~ecg ~local:[ w2; w1 ] "a") 2.0);
  (* Missing middle write: the tail mismatches. *)
  Alcotest.(check bool) "gap costs tail" true
    (feq (Metrics.order_error_lcp ~ecg ~local:[ w1; w3 ] "a") 1.0);
  (* Other conits don't contribute. *)
  Alcotest.(check bool) "other conit" true
    (feq (Metrics.order_error_lcp ~ecg ~local:[ w2; w1 ] "z") 0.0)

let test_metrics_oe_tentative () =
  let ws = [ w ~ow:2.0 ~origin:0 ~seq:1 ~t:1.0 [ "a" ]; w ~ow:3.0 ~origin:0 ~seq:2 ~t:2.0 [ "b" ] ] in
  Alcotest.(check bool) "sums affecting only" true
    (feq (Metrics.order_error_tentative ~tentative:ws "a") 2.0);
  Alcotest.(check bool) "empty 0" true (feq (Metrics.order_error_tentative ~tentative:[] "a") 0.0)

let test_metrics_staleness () =
  let unseen = [ w ~origin:0 ~seq:1 ~t:3.0 [ "a" ]; w ~origin:1 ~seq:1 ~t:7.0 [ "a" ] ] in
  Alcotest.(check bool) "oldest unseen" true (feq (Metrics.staleness ~now:10.0 ~unseen "a") 7.0);
  Alcotest.(check bool) "nothing unseen" true (feq (Metrics.staleness ~now:10.0 ~unseen:[] "a") 0.0);
  Alcotest.(check bool) "other conit" true (feq (Metrics.staleness ~now:10.0 ~unseen "z") 0.0)

(* OE-lcp <= OE-tentative when the local history is committed-prefix ++
   ts-ordered tentative over the canonical ECG (the stability invariant). *)
let test_oe_lcp_le_tentative =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"oe_lcp <= oe_tentative under stability order" ~count:200
       QCheck.(pair (int_bound 1000) (int_bound 10))
       (fun (seed, cut) ->
         let rng = Tact_util.Prng.create ~seed in
         let all =
           List.init 12 (fun i ->
               w ~origin:(Tact_util.Prng.int rng 3) ~seq:(i + 1)
                 ~t:(float_of_int (i + 1))
                 (if Tact_util.Prng.bool rng then [ "a" ] else [ "b" ]))
         in
         let ecg = Ecg.canonical all in
         (* The replica knows a subset that includes the full prefix up to
            [cut] (committed) plus some random later writes (tentative). *)
         let committed = List.filteri (fun i _ -> i < cut) ecg in
         let tentative =
           List.filteri (fun i _ -> i >= cut) ecg
           |> List.filter (fun _ -> Tact_util.Prng.bool rng)
         in
         let local = committed @ tentative in
         Metrics.order_error_lcp ~ecg ~local "a"
         <= Metrics.order_error_tentative ~tentative "a" +. 1e-9))

(* --- Ecg ------------------------------------------------------------- *)

let test_ecg_canonical_sorted () =
  let ws =
    [ w ~origin:1 ~seq:1 ~t:3.0 [ "a" ]; w ~origin:0 ~seq:1 ~t:1.0 [ "a" ];
      w ~origin:2 ~seq:1 ~t:2.0 [ "a" ] ]
  in
  Alcotest.(check (list (float 1e-9))) "sorted by time" [ 1.0; 2.0; 3.0 ]
    (List.map (fun (x : Write.t) -> x.Write.accept_time) (Ecg.canonical ws))

let test_ecg_actual_prefix () =
  let w1 = w ~origin:0 ~seq:1 ~t:1.0 [ "a" ] in
  let w2 = w ~origin:1 ~seq:1 ~t:2.0 [ "a" ] in
  let w3 = w ~origin:2 ~seq:1 ~t:3.0 [ "a" ] in
  let all = [ w1; w2; w3 ] in
  let return_time (id : Write.id) = float_of_int id.Write.origin +. 1.0 in
  (* stime 2.5: w1 returned (t=1), w2 returned (t=2); w3 not (t=3).
     Observed: only w3 (e.g. pushed early). *)
  let prefix =
    Ecg.actual_prefix ~all ~return_time ~stime:2.5
      ~observed:(fun id -> id.Write.origin = 2)
  in
  Alcotest.(check (list int)) "returned + observed" [ 0; 1; 2 ]
    (List.map (fun (x : Write.t) -> x.Write.id.Write.origin) prefix)

let test_ecg_external_compatibility () =
  let w1 = w ~origin:0 ~seq:1 ~t:1.0 [ "a" ] in
  let w2 = w ~origin:1 ~seq:1 ~t:5.0 [ "a" ] in
  let return_time (id : Write.id) = if id.Write.origin = 0 then 2.0 else 6.0 in
  Alcotest.(check bool) "good order" true
    (Ecg.externally_compatible ~order:[ w1; w2 ] ~return_time);
  (* w1 returned (2.0) before w2 accepted (5.0) so w2 cannot precede it. *)
  Alcotest.(check bool) "bad order" false
    (Ecg.externally_compatible ~order:[ w2; w1 ] ~return_time);
  (* Concurrent writes may appear in either order. *)
  let return_time_late (id : Write.id) = if id.Write.origin = 0 then 9.0 else 6.0 in
  Alcotest.(check bool) "concurrent either way" true
    (Ecg.externally_compatible ~order:[ w2; w1 ] ~return_time:return_time_late)

let test_ecg_causal_compatibility () =
  let w1 = w ~origin:0 ~seq:1 ~t:1.0 [ "a" ] in
  let w2 = w ~origin:1 ~seq:1 ~t:2.0 [ "a" ] in
  (* w2's origin had seen w1 when accepting it. *)
  let accept_vector (id : Write.id) =
    let v = Version_vector.create 2 in
    if id.Write.origin = 1 then Version_vector.set v 0 1;
    v
  in
  Alcotest.(check bool) "causal order ok" true
    (Ecg.causally_compatible ~order:[ w1; w2 ] ~accept_vector);
  Alcotest.(check bool) "causal violation flagged" false
    (Ecg.causally_compatible ~order:[ w2; w1 ] ~accept_vector)

(* --- Access ------------------------------------------------------------ *)

let test_access_deps () =
  let a =
    {
      Access.kind = Access.Read;
      replica = 0;
      submit_time = 1.0;
      serve_time = 1.0;
      return_time = 1.0;
      deps = [ { Access.conit = "a"; bound = Bounds.strong } ];
      observed_vector = Version_vector.create 2;
      observed_committed = Version_vector.create 2;
      observed_result = Value.Nil;
    }
  in
  Alcotest.(check bool) "depends" true (Access.depends_on a "a");
  Alcotest.(check bool) "not depends" false (Access.depends_on a "b");
  Alcotest.(check bool) "bound lookup" true
    (Access.bound_for a "a" = Some Bounds.strong && Access.bound_for a "b" = None)

(* --- Figure 4 exactness -------------------------------------------------- *)

let test_fig4_numbers () =
  let o = Tact_experiments.E01_fig4.compute () in
  Alcotest.(check bool) "NE(F1)=1" true (feq o.ne_f1 1.0);
  Alcotest.(check bool) "OE(F1)=1" true (feq o.oe_f1 1.0);
  Alcotest.(check bool) "ST(F1)=stime-rtime(W5)=1" true (feq o.st_f1 1.0);
  Alcotest.(check bool) "NE(F2)=0" true (feq o.ne_f2 0.0);
  Alcotest.(check bool) "OE(F2)=1" true (feq o.oe_f2 1.0);
  Alcotest.(check bool) "ST(F2)=0" true (feq o.st_f2 0.0)

let suite =
  [
    Alcotest.test_case "bounds extremes" `Quick test_bounds_extremes;
    Alcotest.test_case "bounds within" `Quick test_bounds_within;
    Alcotest.test_case "bounds tighten" `Quick test_bounds_tighten;
    Alcotest.test_case "bounds to_string" `Quick test_bounds_to_string;
    Alcotest.test_case "conit declare" `Quick test_conit_declare;
    Alcotest.test_case "metrics value" `Quick test_metrics_value;
    Alcotest.test_case "metrics NE" `Quick test_metrics_numerical_error;
    Alcotest.test_case "metrics relative edges" `Quick test_metrics_relative_edge;
    Alcotest.test_case "metrics projection" `Quick test_metrics_projection;
    Alcotest.test_case "metrics OE lcp" `Quick test_metrics_oe_lcp;
    Alcotest.test_case "metrics OE tentative" `Quick test_metrics_oe_tentative;
    Alcotest.test_case "metrics staleness" `Quick test_metrics_staleness;
    test_oe_lcp_le_tentative;
    Alcotest.test_case "ecg canonical" `Quick test_ecg_canonical_sorted;
    Alcotest.test_case "ecg actual prefix" `Quick test_ecg_actual_prefix;
    Alcotest.test_case "ecg external compat" `Quick test_ecg_external_compatibility;
    Alcotest.test_case "ecg causal compat" `Quick test_ecg_causal_compatibility;
    Alcotest.test_case "access deps" `Quick test_access_deps;
    Alcotest.test_case "figure 4 numbers" `Quick test_fig4_numbers;
  ]
