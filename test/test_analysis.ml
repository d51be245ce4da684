(* The static analyzer: every diagnostic code has a triggering case and a
   clean case, the Spec adapters extract usages faithfully, and the
   config-shape errors it reports are the ones Config.validate rejects at
   every constructor, while every in-tree experiment passes. *)

open Tact_core
open Tact_replica
module A = Tact_analysis.Analyzer
module D = Tact_analysis.Diagnostic

let topo ?(latency = 0.04) n =
  Tact_sim.Topology.uniform ~n ~latency ~bandwidth:1_000_000.0

let has code ds = List.exists (fun (d : D.t) -> String.equal d.D.code code) ds

let fires name code ds =
  Alcotest.(check bool) (name ^ ": " ^ code ^ " fires") true (has code ds)

let clean name code ds =
  Alcotest.(check bool) (name ^ ": " ^ code ^ " absent") false (has code ds)

(* A healthy single-conit configuration used as the clean baseline: bound 9
   over n=4 gives a per-peer share of 3, usages stay under every bound. *)
let good_conit =
  Conit.declare ~ne_bound:9.0 ~oe_bound:5.0 ~st_bound:10.0 ~initial_value:100.0
    "c"

let good_config =
  { Config.default with Config.conits = [ good_conit ]; antientropy_period = Some 1.0 }

let good_usages =
  [
    A.usage ~name:"op" ~affects:[ ("c", 1.0, 1.0) ] ();
    A.usage ~name:"q" ~kind:`Query
      ~depends:[ ("c", { Bounds.weak with Bounds.oe = 4.0; st = 20.0 }) ]
      ();
  ]

let analyze ?(n = 4) ?topology ?(usages = good_usages) config =
  A.analyze ~n ?topology ~usages config

let test_clean_baseline () =
  let ds = analyze ~topology:(topo 4) good_config in
  Alcotest.(check (list string)) "no diagnostics" []
    (List.map (fun (d : D.t) -> D.to_string d) ds)

(* --- declaration shape ------------------------------------------------- *)

let test_ta001 () =
  let bad b =
    { good_config with Config.conits = [ b ] }
  in
  fires "negative ne" "TA001"
    (analyze (bad (Conit.declare ~ne_bound:(-1.0) "c")));
  fires "nan st" "TA001" (analyze (bad (Conit.declare ~st_bound:Float.nan "c")));
  fires "nan initial" "TA001"
    (analyze (bad (Conit.declare ~ne_bound:1.0 ~initial_value:Float.nan "c")));
  clean "good bounds" "TA001" (analyze good_config)

let test_ta002 () =
  let dup =
    { good_config with Config.conits = [ good_conit; Conit.declare ~ne_bound:1.0 "c" ] }
  in
  fires "duplicate" "TA002" (analyze dup);
  clean "unique" "TA002" (analyze good_config)

let test_ta003 () =
  let with_policy p = { good_config with Config.budget_policy = p } in
  fires "wrong arity" "TA003"
    (analyze (with_policy (Tact_protocols.Budget.Proportional [| 1.0 |])));
  fires "negative rate" "TA003"
    (analyze
       (with_policy (Tact_protocols.Budget.Proportional [| 1.0; -1.0; 1.0; 1.0 |])));
  fires "zero sum" "TA003"
    (analyze
       (with_policy (Tact_protocols.Budget.Proportional [| 0.0; 0.0; 0.0; 0.0 |])));
  clean "good rates" "TA003"
    (analyze
       (with_policy (Tact_protocols.Budget.Proportional [| 1.0; 2.0; 1.0; 1.0 |])));
  clean "even" "TA003" (analyze good_config)

let test_ta004 () =
  let with_plan p = { good_config with Config.gossip_plan = Some p } in
  fires "out of range" "TA004" (analyze (with_plan (fun _ -> [| 7 |])));
  fires "self target" "TA004" (analyze (with_plan (fun i -> [| i |])));
  clean "ring" "TA004" (analyze (with_plan (fun i -> [| (i + 1) mod 4 |])))

(* --- schedule checks --------------------------------------------------- *)

let test_ta005 () =
  let rel v =
    { good_config with Config.conits = [ Conit.declare ~ne_rel_bound:0.1 ~initial_value:v "c" ] }
  in
  fires "zero baseline" "TA005" (analyze (rel 0.0));
  clean "real baseline" "TA005" (analyze (rel 100.0))

let test_ta006 () =
  let cfg period st =
    {
      good_config with
      Config.conits = [ Conit.declare ~st_bound:st "c" ];
      antientropy_period = period;
    }
  in
  fires "st below period" "TA006" (analyze (cfg (Some 5.0) 1.0));
  clean "st above period" "TA006" (analyze (cfg (Some 0.5) 1.0));
  (* Also reachable through a query dependency rather than the declaration. *)
  let dep_usage st =
    [ A.usage ~name:"q" ~kind:`Query
        ~depends:[ ("c", { Bounds.weak with Bounds.st }) ]
        ();
      A.usage ~name:"op" ~affects:[ ("c", 1.0, 1.0) ] ()
    ]
  in
  fires "dep st below period" "TA006"
    (analyze ~usages:(dep_usage 1.0) (cfg (Some 5.0) infinity))

let test_ta007 () =
  let cfg st =
    {
      good_config with
      Config.conits = [ Conit.declare ~st_bound:st "c" ];
      antientropy_period = None;
    }
  in
  fires "no anti-entropy" "TA007" (analyze (cfg 1.0));
  (* No staleness requirement anywhere (declaration or deps) — clean. *)
  clean "unbounded st" "TA007"
    (analyze ~usages:[ List.nth good_usages 0 ] (cfg infinity));
  clean "n=1" "TA007" (analyze ~n:1 (cfg 1.0))

let test_ta008 () =
  let cfg st =
    { good_config with Config.conits = [ Conit.declare ~st_bound:st "c" ] }
  in
  (* RTT = 2 x 40 ms = 80 ms. *)
  fires "st below rtt" "TA008" (analyze ~topology:(topo 4) (cfg 0.05));
  clean "st above rtt" "TA008" (analyze ~topology:(topo 4) (cfg 0.5));
  clean "no topology" "TA008" (analyze (cfg 0.05))

let test_ta009 () =
  let cfg scheme oe =
    {
      good_config with
      Config.conits = [ Conit.declare ~oe_bound:oe "c" ];
      commit_scheme = scheme;
    }
  in
  fires "zero oe under stability" "TA009" (analyze (cfg Config.Stability 0.0));
  clean "primary commitment" "TA009" (analyze (cfg (Config.Primary 0) 0.0));
  clean "loose oe" "TA009" (analyze (cfg Config.Stability 5.0))

let test_ta010 () =
  let cfg = { good_config with Config.conits = [ Conit.unconstrained "c" ] } in
  fires "unconstrained declaration" "TA010" (analyze cfg);
  clean "bounded declaration" "TA010" (analyze good_config)

(* --- usage checks ------------------------------------------------------ *)

let test_ta011 () =
  (* Bound 9 over n=4 splits as 3 per peer under Even. *)
  let with_weight w =
    [
      A.usage ~name:"op" ~affects:[ ("c", w, 1.0) ] ();
      List.nth good_usages 1;
    ]
  in
  fires "write exceeds share" "TA011" (analyze ~usages:(with_weight 4.0) good_config);
  clean "write fits share" "TA011" (analyze ~usages:(with_weight 2.0) good_config);
  clean "n=1" "TA011" (analyze ~n:1 ~usages:(with_weight 4.0) good_config);
  (* A proportional policy shrinks some share below the even split. *)
  let prop =
    { good_config with
      Config.budget_policy = Tact_protocols.Budget.Proportional [| 9.0; 1.0; 1.0; 1.0 |]
    }
  in
  fires "skewed shares" "TA011" (analyze ~usages:(with_weight 2.0) prop)

let test_ta012 () =
  let usages oe ow =
    [
      A.usage ~name:"op" ~affects:[ ("c", 1.0, ow) ] ();
      A.usage ~name:"q" ~kind:`Query
        ~depends:[ ("c", { Bounds.weak with Bounds.oe }) ]
        ();
    ]
  in
  fires "oweight exceeds dep bound" "TA012"
    (analyze ~usages:(usages 0.5 1.0) good_config);
  clean "oweight fits" "TA012" (analyze ~usages:(usages 2.0 1.0) good_config)

let test_ta013 () =
  fires "never affected" "TA013"
    (analyze ~usages:[ List.nth good_usages 1 ] good_config);
  clean "affected" "TA013" (analyze good_config)

let test_ta014 () =
  fires "never depended" "TA014"
    (analyze ~usages:[ List.nth good_usages 0 ] good_config);
  clean "depended" "TA014" (analyze good_config);
  (* An unconstrained conit has nothing to depend on — no warning. *)
  clean "unconstrained" "TA014"
    (analyze
       ~usages:[ A.usage ~name:"op" ~affects:[ ("c", 1.0, 1.0) ] () ]
       { good_config with Config.conits = [ Conit.unconstrained "c" ] })

let test_ta015 () =
  let ghost =
    A.usage ~name:"op" ~affects:[ ("ghost", 1.0, 1.0) ] ()
  in
  fires "undeclared affect" "TA015"
    (analyze ~usages:(ghost :: good_usages) good_config);
  let ghost_dep =
    A.usage ~name:"q" ~kind:`Query
      ~depends:[ ("ghost", { Bounds.weak with Bounds.ne = 1.0 }) ]
      ()
  in
  fires "undeclared NE dep" "TA015"
    (analyze ~usages:(ghost_dep :: good_usages) good_config);
  clean "all declared" "TA015" (analyze good_config)

let test_ta016 () =
  let w nw ow = A.usage ~name:"op" ~affects:[ ("c", nw, ow) ] () in
  fires "nan nweight" "TA016"
    (analyze ~usages:(w Float.nan 1.0 :: good_usages) good_config);
  fires "negative oweight" "TA016"
    (analyze ~usages:(w 1.0 (-1.0) :: good_usages) good_config);
  let bad_dep =
    A.usage ~name:"q" ~kind:`Query
      ~depends:[ ("c", { Bounds.weak with Bounds.ne = -1.0 }) ]
      ()
  in
  fires "negative dep bound" "TA016"
    (analyze ~usages:(bad_dep :: good_usages) good_config);
  clean "good weights" "TA016" (analyze good_config)

(* --- code table -------------------------------------------------------- *)

let test_codes_table () =
  Alcotest.(check int) "16 codes" 16 (List.length A.codes);
  let names = List.map (fun (c, _, _) -> c) A.codes in
  Alcotest.(check (list string)) "unique and sorted" names
    (List.sort_uniq String.compare names)

(* --- Spec adapters ----------------------------------------------------- *)

let test_of_op_class () =
  let cls =
    Spec.op_class ~name:"purchase"
      ~affects:(fun qty -> [ ("c", float_of_int qty, 1.0) ])
      ~depends:(fun _ -> [ ("c", { Bounds.weak with Bounds.ne = 5.0 }) ])
      ~op:(fun qty -> Tact_store.Op.Add ("x", float_of_int qty))
      ()
  in
  let u = A.of_op_class cls ~args:[ 1; 3 ] in
  Alcotest.(check string) "name" "purchase" u.A.u_name;
  Alcotest.(check int) "affects per arg" 2 (List.length u.A.u_affects);
  Alcotest.(check int) "depends per arg" 2 (List.length u.A.u_depends);
  let q =
    Spec.query ~name:"lookup"
      ~depends:(fun _ -> [ ("c", { Bounds.weak with Bounds.st = 1.0 }) ])
      ~read:(fun _ _ -> Tact_store.Value.Nil)
      ()
  in
  let uq = A.of_query q ~args:[ () ] in
  Alcotest.(check string) "query name" "lookup" uq.A.u_name;
  Alcotest.(check int) "query affects nothing" 0 (List.length uq.A.u_affects);
  Alcotest.(check int) "query depends" 1 (List.length uq.A.u_depends)

(* --- one config gate ----------------------------------------------------- *)

let test_validate_rejects_shape () =
  (* The TA001/TA003 inputs are config-shape errors: Config.validate rejects
     each (through the predicates it shares with the analyzer), so every
     constructor refuses them without the analyzer in the loop. *)
  let with_policy p = { good_config with Config.budget_policy = p } in
  let with_conit c = { good_config with Config.conits = [ c ] } in
  let prop r = with_policy (Tact_protocols.Budget.Proportional r) in
  let rejects create =
    match create () with _ -> false | exception Invalid_argument _ -> true
  in
  let bad =
    [
      ("short weights", prop [| 1.0 |]);
      ("negative weight", prop [| 1.0; -1.0; 1.0; 1.0 |]);
      ("all-zero weights", prop [| 0.0; 0.0; 0.0; 0.0 |]);
      ("negative ne", with_conit (Conit.declare ~ne_bound:(-1.0) "c"));
      ("nan st", with_conit (Conit.declare ~st_bound:Float.nan "c"));
      ( "nan initial",
        with_conit (Conit.declare ~ne_bound:1.0 ~initial_value:Float.nan "c") );
    ]
  in
  List.iter
    (fun (name, config) ->
      Alcotest.(check bool) (name ^ ": validate rejects") true
        (Result.is_error (Config.validate ~n:4 config));
      Alcotest.(check bool) (name ^ ": System.create raises") true
        (rejects (fun () -> System.create ~topology:(topo 4) ~config ()));
      Alcotest.(check bool) (name ^ ": Sharded.create raises") true
        (rejects (fun () -> Sharded.create ~topology:(topo 4) ~config ())))
    bad;
  (* E11's skewed vector is well-formed and runs. *)
  let e11 = prop [| 5.0; 0.4; 0.4; 0.4 |] in
  Alcotest.(check bool) "E11 weights accepted" true
    (Result.is_ok (Config.validate ~n:4 e11));
  System.run ~until:1.0 (System.create ~topology:(topo 4) ~config:e11 ())

let test_experiments_clean () =
  (* Every registered experiment builds its systems through System.create,
     whose Config.validate would abort the run on a malformed config. *)
  List.iter
    (fun (e : Tact_experiments.Registry.entry) ->
      ignore (e.Tact_experiments.Registry.run ~quick:true ()))
    Tact_experiments.Registry.all

let suite =
  [
    Alcotest.test_case "clean baseline" `Quick test_clean_baseline;
    Alcotest.test_case "TA001 invalid bound" `Quick test_ta001;
    Alcotest.test_case "TA002 duplicate conit" `Quick test_ta002;
    Alcotest.test_case "TA003 budget weights" `Quick test_ta003;
    Alcotest.test_case "TA004 gossip plan" `Quick test_ta004;
    Alcotest.test_case "TA005 zero baseline" `Quick test_ta005;
    Alcotest.test_case "TA006 st vs anti-entropy" `Quick test_ta006;
    Alcotest.test_case "TA007 st without anti-entropy" `Quick test_ta007;
    Alcotest.test_case "TA008 st vs rtt" `Quick test_ta008;
    Alcotest.test_case "TA009 oe vs stability" `Quick test_ta009;
    Alcotest.test_case "TA010 unconstrained conit" `Quick test_ta010;
    Alcotest.test_case "TA011 unenforceable ne" `Quick test_ta011;
    Alcotest.test_case "TA012 oe vs oweight" `Quick test_ta012;
    Alcotest.test_case "TA013 never affected" `Quick test_ta013;
    Alcotest.test_case "TA014 never depended" `Quick test_ta014;
    Alcotest.test_case "TA015 undeclared conit" `Quick test_ta015;
    Alcotest.test_case "TA016 invalid weight" `Quick test_ta016;
    Alcotest.test_case "code table" `Quick test_codes_table;
    Alcotest.test_case "spec adapters" `Quick test_of_op_class;
    Alcotest.test_case "validate rejects shape" `Quick test_validate_rejects_shape;
    Alcotest.test_case "experiments clean" `Slow test_experiments_clean;
  ]
