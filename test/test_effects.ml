(* The interprocedural effect pass (lib/staticcheck): call-graph
   construction and SCC order, the rules table, fixpoint propagation over
   the planted dirty/clean fixture twins (SA050-SA064), the dead-exported
   API pass (SA004), byte-identical re-runs, and the real-tree acceptance
   checks (deterministic core clean, nemesis campaign reaches a raise
   through System.run). *)

open Tact_staticcheck
module Json = Tact_util.Json

let root = if Sys.file_exists "fixtures/staticcheck" then "" else "test/"
let fixture name = root ^ "fixtures/staticcheck/" ^ name
let repo_root = if String.equal root "" then ".." else "."

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let parse_rules_exn text =
  match Effects.parse_rules text with
  | Ok r -> r
  | Error e -> Alcotest.failf "rules did not parse: %s" e

let find_rule findings id =
  List.filter (fun (f : Report.finding) -> f.f_rule.Report.id = id) findings

let ids findings =
  List.sort_uniq String.compare
    (List.map (fun (f : Report.finding) -> f.f_rule.Report.id) findings)

let labels set = List.map Effects.atom_label (Effects.AtomSet.elements set)

(* --- the fixture universe ----------------------------------------------- *)

(* Each planted fixture file is loaded under a synthetic repo path so the
   dir-scoped rules (det roots, bin/ entrypoints) apply to it. *)
let eff_fixture_map =
  [ ("lib/core/det_dirty.ml", "eff_det_dirty.ml");
    ("lib/core/det_clean.ml", "eff_det_clean.ml");
    ("lib/core/pool_dirty.ml", "eff_pool_dirty.ml");
    ("lib/core/pool_clean.ml", "eff_pool_clean.ml");
    ("bin/entry_dirty.ml", "eff_entry_dirty.ml");
    ("bin/entry_clean.ml", "eff_entry_clean.ml");
    ("lib/core/annot_dirty.ml", "eff_annot_dirty.ml");
    ("lib/core/annot_clean.ml", "eff_annot_clean.ml");
    ("lib/core/scc_a.ml", "eff_scc_a.ml");
    ("lib/core/scc_b.ml", "eff_scc_b.ml") ]

let eff_rules_text =
  "atom wall Unix.gettimeofday\n\
   pure Random.State.*\n\
   atom random Random.*\n\
   atom hashtbl Hashtbl.iter\n\
   atom block Unix.sleepf Mutex.lock\n\
   atom domain Domain.spawn\n\
   atom raise failwith raise\n\
   assume pure\n\
   root det lib/core/Det_dirty lib/core/Det_clean\n"

let fixture_pipeline () =
  let sources =
    List.map
      (fun (path, file) -> Loader.load_string ~path (read_file (fixture file)))
      eff_fixture_map
  in
  let loaded = Loader.of_sources sources in
  let sums = List.map (Summary.of_source loaded) loaded.Loader.sources in
  let graph = Graph.build sums in
  let cg = Callgraph.build graph in
  let eff = Effects.infer (parse_rules_exn eff_rules_text) graph cg in
  (graph, cg, eff)

let fixture_eff = lazy (fixture_pipeline ())
let fixture_findings = lazy (let _, _, eff = Lazy.force fixture_eff in Effects.run eff)

let node dir m d = { Callgraph.cg_dir = dir; cg_mod = m; cg_def = d }

(* Exactly one finding with the id; return it. *)
let the findings id =
  match find_rule findings id with
  | [ f ] -> f
  | l -> Alcotest.failf "expected exactly one %s, got %d" id (List.length l)

let check_anchor name (f : Report.finding) path line context =
  Alcotest.(check string) (name ^ ": path") path f.Report.f_path;
  Alcotest.(check int) (name ^ ": line") line f.Report.f_line;
  Alcotest.(check string) (name ^ ": context") context f.Report.f_context

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --- the SA05x/SA06x catalogue ------------------------------------------- *)

let test_catalogue () =
  List.iter
    (fun (id, severity) ->
      let r = Report.rule id in
      Alcotest.(check bool) (id ^ " severity") true
        (r.Report.severity = severity))
    [ ("SA004", Report.Info); ("SA050", Report.Error); ("SA051", Report.Error);
      ("SA052", Report.Error); ("SA053", Report.Warning);
      ("SA060", Report.Error); ("SA061", Report.Error);
      ("SA062", Report.Warning); ("SA063", Report.Warning);
      ("SA064", Report.Error) ];
  let ids = List.map (fun (r : Report.rule) -> r.Report.id) Report.rules in
  Alcotest.(check bool) "catalogue sorted by id" true
    (List.sort String.compare ids = ids)

let test_atom_order () =
  (* compare_atom drives every sorted rendering; the effect families keep
     a stable order and payloads break ties. *)
  let open Effects in
  Alcotest.(check bool) "wall before widened" true
    (compare_atom Wall_clock (Widened ".f") < 0);
  Alcotest.(check bool) "payload breaks ties" true
    (compare_atom (Blocking "Mutex.lock") (Blocking "Unix.read") < 0);
  Alcotest.(check int) "equal atoms" 0
    (compare_atom (Raises "failwith") (Raises "failwith"))

(* --- rules parsing ------------------------------------------------------- *)

let test_rules_parse_error () =
  (match Effects.parse_rules "atom bogus x\n" with
  | Ok _ -> Alcotest.fail "bad atom kind accepted"
  | Error e ->
    Alcotest.(check bool) "error names the line" true (contains e "line 1"));
  match Effects.parse_rules "root det NoSlash\n" with
  | Ok _ -> Alcotest.fail "root without dir accepted"
  | Error _ -> ()

let test_repo_effect_rules_parse () =
  ignore (parse_rules_exn (read_file (repo_root ^ "/analysis/effects.rules")))

(* --- call graph ---------------------------------------------------------- *)

let test_callgraph_shape () =
  let _, cg, _ = Lazy.force fixture_eff in
  let run = node "lib/core" "Det_dirty" "run" in
  Alcotest.(check bool) "run is a node" true (Callgraph.mem cg run);
  let callees = List.map (fun (n, _) -> Callgraph.label n) (Callgraph.succs cg run) in
  List.iter
    (fun callee ->
      Alcotest.(check bool) ("run calls " ^ callee) true
        (List.mem ("lib/core/Det_dirty." ^ callee) callees))
    [ "stamp"; "jitter"; "spread"; "fire" ];
  Alcotest.(check bool) "nodes sorted by key" true
    (let keys = List.map Callgraph.key (Callgraph.nodes cg) in
     List.sort String.compare keys = keys)

let test_scc_order_and_members () =
  let _, cg, _ = Lazy.force fixture_eff in
  let ping = node "lib/core" "Scc_a" "ping" in
  let pong = node "lib/core" "Scc_b" "pong" in
  let sccs = Callgraph.sccs cg in
  let cyc =
    match List.find_opt (fun c -> List.exists (fun n -> Callgraph.compare_node n ping = 0) c) sccs with
    | Some c -> c
    | None -> Alcotest.fail "ping's SCC not found"
  in
  Alcotest.(check int) "cross-module cycle is one SCC" 2 (List.length cyc);
  Alcotest.(check bool) "pong in the same SCC" true
    (List.exists (fun n -> Callgraph.compare_node n pong = 0) cyc);
  (* bottom-up: tick's singleton SCC must appear before the cycle that
     calls it. *)
  let tick = node "lib/core" "Scc_a" "tick" in
  let index_of n =
    let rec go i = function
      | [] -> Alcotest.failf "%s not in any SCC" (Callgraph.label n)
      | c :: rest ->
        if List.exists (fun m -> Callgraph.compare_node m n = 0) c then i
        else go (i + 1) rest
    in
    go 0 sccs
  in
  Alcotest.(check bool) "callees before callers" true (index_of tick < index_of ping)

let test_scc_fixpoint () =
  let _, _, eff = Lazy.force fixture_eff in
  let pong = node "lib/core" "Scc_b" "pong" in
  Alcotest.(check (list string)) "atom crosses the module cycle"
    [ "wall-clock" ]
    (labels (Effects.summary_of eff pong));
  match Effects.chain eff pong Effects.Wall_clock with
  | None -> Alcotest.fail "no chain through the SCC"
  | Some nodes ->
    Alcotest.(check string) "chain walks the cycle to the carrier"
      "lib/core/Scc_b.pong -> lib/core/Scc_a.ping -> lib/core/Scc_a.tick"
      (Effects.chain_text nodes)

(* --- direct vs transitive ------------------------------------------------ *)

let test_summary_sorted () =
  let _, _, eff = Lazy.force fixture_eff in
  let stamp = node "lib/core" "Det_dirty" "stamp" in
  let run = node "lib/core" "Det_dirty" "run" in
  Alcotest.(check (list string)) "stamp's own body reads the clock"
    [ "wall-clock" ] (labels (Effects.direct_of eff stamp));
  Alcotest.(check (list string)) "run is pure directly" []
    (labels (Effects.direct_of eff run));
  Alcotest.(check (list string)) "run's transitive summary"
    (List.sort String.compare
       [ "wall-clock"; "random"; "hashtbl-iter"; "widened:.on_step" ])
    (List.sort String.compare (labels (Effects.summary_of eff run)))

(* --- SA050-SA053: det-core twins ----------------------------------------- *)

let test_det_dirty_flagged () =
  let findings = Lazy.force fixture_findings in
  let f = the findings "SA050" in
  check_anchor "SA050" f "lib/core/det_dirty.ml" 7 "def:stamp:wall-clock";
  Alcotest.(check bool) "SA050 carries the chain" true
    (contains f.Report.f_message "reachable from deterministic root");
  let f = the findings "SA051" in
  check_anchor "SA051" f "lib/core/det_dirty.ml" 8 "def:jitter:random";
  let f = the findings "SA052" in
  check_anchor "SA052" f "lib/core/det_dirty.ml" 9 "def:spread:hashtbl-iter";
  let f = the findings "SA053" in
  check_anchor "SA053" f "lib/core/det_dirty.ml" 10 "def:fire:widened:.on_step"

let test_det_clean_silent () =
  let findings = Lazy.force fixture_findings in
  Alcotest.(check int) "clean det twin has no findings" 0
    (List.length
       (List.filter
          (fun (f : Report.finding) -> f.Report.f_path = "lib/core/det_clean.ml")
          findings))

(* --- SA060-SA062: pool-task twins ---------------------------------------- *)

let test_pool_dirty_flagged () =
  let findings = Lazy.force fixture_findings in
  let f = the findings "SA060" in
  check_anchor "SA060" f "lib/core/pool_dirty.ml" 12 "def:go:Unix.sleepf";
  Alcotest.(check bool) "SA060 names the route" true
    (contains f.Report.f_message "via lib/core/Pool_dirty.nap");
  (match find_rule findings "SA061" with
  | [ a; b ] ->
    let ctxs = List.sort String.compare [ a.Report.f_context; b.Report.f_context ] in
    Alcotest.(check (list string)) "SA061 mutex + domain-spawn"
      [ "def:go:Mutex.lock"; "def:go:domain-spawn" ] ctxs
  | l -> Alcotest.failf "expected two SA061, got %d" (List.length l));
  let f = the findings "SA062" in
  check_anchor "SA062" f "lib/core/pool_dirty.ml" 12 "def:go:raises"

let test_pool_clean_silent () =
  let findings = Lazy.force fixture_findings in
  Alcotest.(check int) "handled/pure pool twin has no findings" 0
    (List.length
       (List.filter
          (fun (f : Report.finding) -> f.Report.f_path = "lib/core/pool_clean.ml")
          findings))

let test_task_summary_api () =
  let graph, _, eff = Lazy.force fixture_eff in
  let sum =
    match Graph.find graph ~dir:"lib/core" ~modname:"Pool_dirty" with
    | Some s -> s
    | None -> Alcotest.fail "Pool_dirty summary missing"
  in
  match sum.Summary.sum_pool_sites with
  | [ site ] ->
    let atoms = labels (Effects.task_summary eff sum site) in
    List.iter
      (fun a ->
        Alcotest.(check bool) ("task summary has " ^ a) true (List.mem a atoms))
      [ "blocks:Unix.sleepf"; "blocks:Mutex.lock"; "domain-spawn";
        "raises:failwith" ]
  | l -> Alcotest.failf "expected one pool site, got %d" (List.length l)

(* --- SA063 / SA064 ------------------------------------------------------- *)

let test_entry_twins () =
  let findings = Lazy.force fixture_findings in
  let f = the findings "SA063" in
  check_anchor "SA063" f "bin/entry_dirty.ml" 4 "entry:Entry_dirty";
  Alcotest.(check bool) "SA063 names the route" true
    (contains f.Report.f_message "via bin/Entry_dirty._ -> bin/Entry_dirty.bail");
  Alcotest.(check int) "handled entry twin is silent" 0
    (List.length
       (List.filter
          (fun (f : Report.finding) -> f.Report.f_path = "bin/entry_clean.ml")
          findings))

let test_annot_twins () =
  let findings = Lazy.force fixture_findings in
  let f = the findings "SA064" in
  check_anchor "SA064" f "lib/core/annot_dirty.ml" 5 "def:leak:effects-pure";
  Alcotest.(check bool) "SA064 shows the inferred set" true
    (contains f.Report.f_message "wall-clock");
  Alcotest.(check int) "honest annotation is silent" 0
    (List.length
       (List.filter
          (fun (f : Report.finding) -> f.Report.f_path = "lib/core/annot_clean.ml")
          findings))

(* --- renderers carry the chains ------------------------------------------ *)

let test_chains_in_renderers () =
  let findings = Lazy.force fixture_findings in
  let no_baseline _ = false in
  let json = Report.json_of ~baselined:no_baseline findings in
  let sarif = Report.sarif_of ~baselined:no_baseline findings in
  let text =
    String.concat "\n" (List.map Report.to_text findings)
  in
  List.iter
    (fun rendered ->
      Alcotest.(check bool) "chain text present" true
        (contains rendered "lib/core/Pool_dirty.nap"))
    [ json; sarif; text ]

(* --- byte-identical re-runs ---------------------------------------------- *)

let test_determinism () =
  let render () =
    let _, cg, eff = fixture_pipeline () in
    let findings = Effects.run eff in
    ( String.concat "\n" (List.map Report.to_text findings),
      Report.json_of ~baselined:(fun _ -> false) findings,
      Callgraph.dot cg )
  in
  let t1, j1, d1 = render () in
  let t2, j2, d2 = render () in
  Alcotest.(check string) "text identical" t1 t2;
  Alcotest.(check string) "json identical" j1 j2;
  Alcotest.(check string) "dot identical" d1 d2

(* --- why ------------------------------------------------------------------ *)

let test_why () =
  let _, cg, eff = Lazy.force fixture_eff in
  (match Callgraph.resolve_symbol cg "Det_dirty.run" with
  | [ _ ] -> ()
  | l -> Alcotest.failf "resolve_symbol: expected one node, got %d" (List.length l));
  let out = String.concat "\n" (Effects.why eff "Det_dirty.run") in
  Alcotest.(check bool) "why shows the summary" true (contains out "wall-clock");
  Alcotest.(check bool) "why shows a chain" true
    (contains out "lib/core/Det_dirty.stamp");
  Alcotest.(check (list string)) "unknown symbol"
    [ "no definition matches \"nope\"" ]
    (Effects.why eff "nope")

(* --- SA004: dead exported API -------------------------------------------- *)

let interfaces sources =
  let loaded =
    Loader.of_sources
      (List.map
         (fun (path, intf, src) -> Loader.load_string ?intf ~path src)
         sources)
  in
  let sums = List.map (Summary.of_source loaded) loaded.Loader.sources in
  Interfaces.run (Graph.build sums)

let test_dead_api () =
  let findings =
    interfaces
      [ ("lib/core/api.ml", Some "val used : int -> int\nval dead : int\n",
         "let used x = x\nlet dead = 3\n");
        ("lib/replica/client.ml", None, "let f x = Api.used x\n") ]
  in
  let f = the findings "SA004" in
  check_anchor "SA004" f "lib/core/api.mli" 2 "val:Api.dead";
  Alcotest.(check int) "only the dead export flagged" 1 (List.length findings)

let test_dead_api_bare_ref_skips () =
  Alcotest.(check (list string)) "include disables the pass" []
    (ids
       (interfaces
          [ ("lib/core/api.ml", Some "val used : int -> int\nval dead : int\n",
             "let used x = x\nlet dead = 3\n");
            ("lib/replica/client.ml", None, "include Api\nlet f x = used x\n") ]))

(* A use through an open or an alias is an exact reference: the export it
   names is live, its unused sibling is still reported. *)
let test_dead_api_through_open () =
  List.iter
    (fun (how, client) ->
      let findings =
        interfaces
          [ ("lib/core/api.ml", Some "val used : int -> int\nval dead : int\n",
             "let used x = x\nlet dead = 3\n");
            ("lib/replica/client.ml", None, client) ]
      in
      Alcotest.(check (list string)) (how ^ ": only the sibling is dead")
        [ "val:Api.dead" ]
        (List.map (fun (f : Report.finding) -> f.Report.f_context) findings))
    [ ("let open", "let f () = let open Api in used 1\n");
      ("alias", "module A = Api\nlet f x = A.used x\n") ]

let test_dead_api_self_ref_not_alive () =
  (* A module using its own export does not keep it alive. *)
  Alcotest.(check (list string)) "self reference is not a use" [ "SA004" ]
    (ids
       (interfaces
          [ ("lib/core/api.ml", Some "val used : int -> int\n",
             "let used x = x\nlet _ = used 1\n") ]))

let test_intf_parse_error () =
  let findings =
    interfaces [ ("lib/core/api.ml", Some "val broken", "let x = 1\n") ]
  in
  let f = the findings "SA001" in
  Alcotest.(check string) "reported on the .mli" "lib/core/api.mli"
    f.Report.f_path;
  Alcotest.(check string) "context" "interface" f.Report.f_context

let test_mli_loader () =
  let s =
    Loader.load_string ~intf:"val a : int\n\nval b : unit -> int\n"
      ~path:"lib/core/m.ml" "let a = 1\nlet b () = a\n"
  in
  match s.Loader.s_intf with
  | None -> Alcotest.fail "intf not attached"
  | Some i ->
    Alcotest.(check string) "intf path" "lib/core/m.mli" i.Loader.i_path;
    Alcotest.(check (list (pair string int))) "exported vals with lines"
      [ ("a", 1); ("b", 3) ] i.Loader.i_vals

let test_find_module () =
  let loaded =
    Loader.of_sources [ Loader.load_string ~path:"lib/core/m.ml" "let a = 1\n" ]
  in
  Alcotest.(check bool) "find_module hit" true
    (Loader.find_module loaded ~dir:"lib/core" "M" <> None);
  Alcotest.(check bool) "find_module miss" true
    (Loader.find_module loaded ~dir:"lib/core" "Absent" = None)

(* --- stale baseline keys -------------------------------------------------- *)

let test_baseline_stale () =
  let live =
    Report.finding ~rule_id:"SA040" ~path:"lib/a.ml" ~loc:Location.none
      ~context:"f:compare" "m"
  in
  let b =
    Baseline.of_keys [ Report.key live; "SA041 lib/gone.ml g:wall-clock" ]
  in
  Alcotest.(check (list string)) "only the rotted key is stale"
    [ "SA041 lib/gone.ml g:wall-clock" ]
    (Baseline.stale b [ live ]);
  Alcotest.(check (list string)) "empty baseline has no stale keys" []
    (Baseline.stale Baseline.empty [ live ]);
  Alcotest.(check int) "keys round-trip" 2 (List.length (Baseline.keys b))

(* --- the real tree -------------------------------------------------------- *)

let repo_eff =
  lazy
    (let loaded = Loader.load_dirs ~root:repo_root [ "lib"; "bin" ] in
     let sums = List.map (Summary.of_source loaded) loaded.Loader.sources in
     let graph = Graph.build sums in
     let cg = Callgraph.build graph in
     let rules =
       parse_rules_exn (read_file (repo_root ^ "/analysis/effects.rules"))
     in
     (graph, cg, Effects.infer rules graph cg))

let test_repo_det_core_clean () =
  (* The acceptance bar: the deterministic core of the real tree carries
     no wall-clock, unseeded-random or Hashtbl-order effects.  SA053
     widenings (trust seams) are allowed and baselined. *)
  let _, _, eff = Lazy.force repo_eff in
  let findings = Effects.run eff in
  List.iter
    (fun id ->
      Alcotest.(check (list string)) (id ^ " clean on the real tree") []
        (List.map (fun (f : Report.finding) -> f.Report.f_message)
           (find_rule findings id)))
    [ "SA050"; "SA051"; "SA052" ]

let test_repo_campaign_reaches_raise () =
  (* The nemesis campaign reaches an unhandled [raise] (SA062, baselined)
     through the run it checks; the fixpoint must rediscover it through the
     call graph, with the full chain down to System.run. *)
  let _, cg, eff = Lazy.force repo_eff in
  let run =
    match Callgraph.resolve_symbol cg "Campaign.run" with
    | [ n ] -> n
    | l -> Alcotest.failf "Campaign.run: expected one node, got %d" (List.length l)
  in
  let raises = Effects.Raises "raise" in
  let atoms = Effects.summary_of eff run in
  Alcotest.(check bool) "campaign reaches a raise" true
    (Effects.AtomSet.mem raises atoms);
  match Effects.chain eff run raises with
  | None -> Alcotest.fail "no chain to a raise"
  | Some nodes ->
    let text = Effects.chain_text nodes in
    List.iter
      (fun hop ->
        Alcotest.(check bool) ("chain passes " ^ hop) true (contains text hop))
      [
        "lib/check/Campaign.one_run";
        "lib/check/Runner.run";
        "lib/replica/System.run";
      ];
    Alcotest.(check bool) "chain starts at the campaign" true
      (contains text "lib/check/Campaign.run")

let suite =
  [
    Alcotest.test_case "rule catalogue" `Quick test_catalogue;
    Alcotest.test_case "atom order" `Quick test_atom_order;
    Alcotest.test_case "rules parse errors" `Quick test_rules_parse_error;
    Alcotest.test_case "repo effect rules parse" `Quick
      test_repo_effect_rules_parse;
    Alcotest.test_case "callgraph shape" `Quick test_callgraph_shape;
    Alcotest.test_case "scc order and members" `Quick test_scc_order_and_members;
    Alcotest.test_case "scc fixpoint" `Quick test_scc_fixpoint;
    Alcotest.test_case "direct vs summary" `Quick test_summary_sorted;
    Alcotest.test_case "det twins: dirty flagged" `Quick test_det_dirty_flagged;
    Alcotest.test_case "det twins: clean silent" `Quick test_det_clean_silent;
    Alcotest.test_case "pool twins: dirty flagged" `Quick test_pool_dirty_flagged;
    Alcotest.test_case "pool twins: clean silent" `Quick test_pool_clean_silent;
    Alcotest.test_case "task summary api" `Quick test_task_summary_api;
    Alcotest.test_case "entry twins (SA063)" `Quick test_entry_twins;
    Alcotest.test_case "annotation twins (SA064)" `Quick test_annot_twins;
    Alcotest.test_case "chains in renderers" `Quick test_chains_in_renderers;
    Alcotest.test_case "byte-identical re-runs" `Quick test_determinism;
    Alcotest.test_case "why" `Quick test_why;
    Alcotest.test_case "dead exported api" `Quick test_dead_api;
    Alcotest.test_case "dead api: bare ref skips" `Quick
      test_dead_api_bare_ref_skips;
    Alcotest.test_case "dead api: self ref not alive" `Quick
      test_dead_api_self_ref_not_alive;
    Alcotest.test_case "interface parse error" `Quick test_intf_parse_error;
    Alcotest.test_case "mli loader" `Quick test_mli_loader;
    Alcotest.test_case "find module" `Quick test_find_module;
    Alcotest.test_case "baseline stale keys" `Quick test_baseline_stale;
    Alcotest.test_case "real tree: det core clean" `Quick
      test_repo_det_core_clean;
    Alcotest.test_case "real tree: campaign reaches raise" `Quick
      test_repo_campaign_reaches_raise;
    Alcotest.test_case "dead api: use through open or alias" `Quick
      test_dead_api_through_open;
  ]
