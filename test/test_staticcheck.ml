(* The AST-based analyzer (lib/staticcheck): loader, scope-aware
   determinism rules, the domain-race pass over the planted fixtures, the
   layering pass against architecture-as-data rules, baselines, and the
   JSON/SARIF renderers. *)

open Tact_staticcheck
module Json = Tact_util.Json

(* Under `dune runtest` the cwd is the test directory; `dune exec
   test/main.exe` (the sanitizer CI step) runs from the project root. *)
let root = if Sys.file_exists "fixtures/staticcheck" then "" else "test/"
let fixture name = root ^ "fixtures/staticcheck/" ^ name

let rules_path =
  if Sys.file_exists "../analysis/layering.rules" then
    "../analysis/layering.rules"
  else "analysis/layering.rules"

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

(* The repo's effect table: the Hashtbl-order hygiene rule reads its
   [hashtbl] classification. *)
let effect_rules =
  lazy
    (let path =
       if Sys.file_exists "../analysis/effects.rules" then
         "../analysis/effects.rules"
       else "analysis/effects.rules"
     in
     match Effects.parse_rules (read_file path) with
     | Ok r -> r
     | Error e -> Alcotest.failf "effects.rules did not parse: %s" e)

(* The race pass reads the effect pass's task summaries. *)
let races graph =
  Races.run
    (Effects.infer (Lazy.force effect_rules) graph (Callgraph.build graph))

(* Run every pass over a set of (path, contents) synthetic sources. *)
let analyze sources =
  let loaded =
    Loader.of_sources
      (List.map (fun (path, src) -> Loader.load_string ~path src) sources)
  in
  let sums = List.map (Summary.of_source loaded) loaded.Loader.sources in
  let graph = Graph.build sums in
  (graph, races graph @ Determinism.run (Lazy.force effect_rules) sums)

let find_rule findings id =
  List.filter (fun (f : Report.finding) -> f.f_rule.Report.id = id) findings

let ids findings =
  List.sort_uniq String.compare
    (List.map (fun (f : Report.finding) -> f.f_rule.Report.id) findings)

(* --- loader ------------------------------------------------------------ *)

let test_loader () =
  let s = Loader.load_file (fixture "racy.ml") in
  Alcotest.(check string) "module name" "Racy" s.Loader.s_module;
  Alcotest.(check string) "dir" (root ^ "fixtures/staticcheck") s.Loader.s_dir;
  Alcotest.(check bool) "parses" true (s.Loader.s_ast <> None);
  let bad = Loader.load_string ~path:"lib/x/bad.ml" "let = = =" in
  Alcotest.(check bool) "syntax error captured" true (bad.Loader.s_error <> None);
  Alcotest.(check bool) "no ast on error" true (bad.Loader.s_ast = None)

(* --- race pass over the planted fixtures -------------------------------- *)

let load_fixtures () =
  let loaded =
    Loader.of_sources
      [ Loader.load_file (fixture "racy.ml");
        Loader.load_file (fixture "synced.ml") ]
  in
  let sums = List.map (Summary.of_source loaded) loaded.Loader.sources in
  races (Graph.build sums)

let test_racy_flagged () =
  let findings = load_fixtures () in
  let racy =
    List.filter
      (fun (f : Report.finding) -> f.Report.f_path = fixture "racy.ml")
      findings
  in
  (* SA020: the module-level Hashtbl reached from the Pool.map_list task,
     reported at the pool call site. *)
  let sa020 = find_rule racy "SA020" in
  Alcotest.(check bool) "SA020 reported" true (sa020 <> []);
  List.iter
    (fun (f : Report.finding) ->
      Alcotest.(check string) "SA020 context" "def:tally:counts"
        f.Report.f_context;
      Alcotest.(check int) "SA020 at the Pool.map_list site" 14
        f.Report.f_line)
    sa020;
  (* SA021: the captured local ref mutated inside the task, reported at the
     mutation. *)
  match find_rule racy "SA021" with
  | [ f ] ->
    Alcotest.(check string) "SA021 context" "def:tally:total"
      f.Report.f_context;
    Alcotest.(check int) "SA021 at the incr" 16 f.Report.f_line
  | l -> Alcotest.failf "expected one SA021, got %d" (List.length l)

let test_synced_clean () =
  let findings = load_fixtures () in
  let synced =
    List.filter
      (fun (f : Report.finding) -> f.Report.f_path = fixture "synced.ml")
      findings
  in
  Alcotest.(check int) "Sync-wrapped twin is clean" 0 (List.length synced)

(* A task in one module reaches another module's table through a call: the
   key names the owning module, the finding sits at the pool call, and the
   message names the function on the route.  The Sync twin stays clean. *)
let test_cross_module_race () =
  let _, findings =
    analyze
      [ ("lib/core/pin_a.ml",
         "let kick pool k =\n  Pool.post pool (fun () -> Pin_b.bump k)\n");
        ("lib/core/pin_b.ml",
         "let counts : (string, int) Hashtbl.t = Hashtbl.create 16\n\
          let bump k = Hashtbl.replace counts k 1\n");
        ("lib/core/pin_c.ml",
         "let kick pool k =\n  Pool.post pool (fun () -> Pin_d.bump k)\n");
        ("lib/core/pin_d.ml",
         "let counts : (string, int) Sync.Map.t = Sync.Map.create 16\n\
          let bump k = Sync.Map.update counts k (fun _ -> Some 1)\n") ]
  in
  let in_file path =
    List.filter (fun (f : Report.finding) -> f.Report.f_path = path)
  in
  (match in_file "lib/core/pin_a.ml" (find_rule findings "SA020") with
  | [ f ] ->
    Alcotest.(check string) "SA020 key names the owning module"
      "def:kick:Pin_b.counts" f.Report.f_context;
    Alcotest.(check int) "SA020 at the Pool.post call" 2 f.Report.f_line;
    let msg = f.Report.f_message in
    let has sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "message names bump on the route" true (has "bump")
  | l -> Alcotest.failf "expected one SA020 in pin_a.ml, got %d" (List.length l));
  Alcotest.(check int) "Sync twin is clean" 0
    (List.length (in_file "lib/core/pin_c.ml" findings))

(* [Pool.map_array] is an escape point like the other three: the shard
   engines of [Sharded.run] are submitted through it. *)
let test_map_array_race () =
  let _, findings =
    analyze
      [ ("lib/core/shards.ml",
         "let seen : (int, unit) Hashtbl.t = Hashtbl.create 16\n\
          let run pool xs =\n\
         \  Pool.map_array pool (fun x -> Hashtbl.replace seen x ()) xs\n") ]
  in
  match find_rule findings "SA020" with
  | [ f ] ->
    Alcotest.(check string) "SA020 key" "def:run:seen" f.Report.f_context;
    Alcotest.(check int) "SA020 at the Pool.map_array call" 3 f.Report.f_line
  | l -> Alcotest.failf "expected one SA020, got %d" (List.length l)

(* --- module-state (SA030) ---------------------------------------------- *)

let test_module_state () =
  let _, findings =
    analyze
      [ ("lib/core/reg.ml",
         "let registry = Hashtbl.create 16\n\
          let make () = Hashtbl.create 16\n\
          let cell = Sync.Cell.make 0\n") ]
  in
  match find_rule findings "SA030" with
  | [ f ] ->
    Alcotest.(check string) "flags the global, not the function or the \
                             Sync cell" "def:registry" f.Report.f_context;
    Alcotest.(check int) "line" 1 f.Report.f_line
  | l -> Alcotest.failf "expected one SA030, got %d" (List.length l)

(* --- determinism pass --------------------------------------------------- *)

let det path src =
  let _, findings = analyze [ (path, src) ] in
  findings

let test_bare_compare () =
  Alcotest.(check (list string)) "bare compare" [ "SA040" ]
    (ids (det "lib/core/a.ml" "let f a b = compare a b\n"))

let test_local_compare_not_flagged () =
  Alcotest.(check (list string)) "own compare shadows" []
    (ids
       (det "lib/core/a.ml"
          "let compare a b = Int.compare a b\nlet f a b = compare a b\n"))

let test_aliased_compare_flagged () =
  Alcotest.(check (list string)) "module S = Stdlib chased" [ "SA040" ]
    (ids (det "lib/core/a.ml" "module S = Stdlib\nlet f a b = S.compare a b\n"))

let test_wall_clock () =
  Alcotest.(check (list string)) "Unix.gettimeofday" [ "SA041" ]
    (ids (det "lib/core/a.ml" "let now () = Unix.gettimeofday ()\n"));
  Alcotest.(check (list string)) "Sys.time" [ "SA041" ]
    (ids (det "lib/core/a.ml" "let now () = Sys.time ()\n"))

let test_global_random () =
  Alcotest.(check (list string)) "Random.int" [ "SA042" ]
    (ids (det "lib/core/a.ml" "let r () = Random.int 10\n"));
  Alcotest.(check (list string)) "Random.State is fine" []
    (ids (det "lib/core/a.ml" "let r st = Random.State.int st 10\n"))

let test_obj_magic () =
  Alcotest.(check (list string)) "Obj.magic" [ "SA043" ]
    (ids (det "lib/core/a.ml" "let c x = Obj.magic x\n"))

let test_float_equal_scoped () =
  Alcotest.(check (list string)) "float = in lib/core" [ "SA044" ]
    (ids (det "lib/core/a.ml" "let z x = x = 0.0\n"));
  Alcotest.(check (list string)) "same code in lib/sim is out of scope" []
    (ids (det "lib/sim/a.ml" "let z x = x = 0.0\n"))

let test_determinism_lib_only () =
  Alcotest.(check (list string)) "bin is out of scope for SA040" []
    (ids (det "bin/tool.ml" "let f a b = compare a b\n"))

(* --- source-hygiene rules (SA045-SA048) ---------------------------------- *)

let allow_table =
  [
    ("lint: allow hashtbl-fold -- sorted below", Some (Ok (false, [ "hashtbl-fold" ])));
    ( " lint: allow hashtbl-iter, hashtbl-fold \xe2\x80\x94 order-free ",
      Some (Ok (false, [ "hashtbl-iter"; "hashtbl-fold" ])) );
    ( "lint: allow-file naked-failwith alloc-hot-path -- legacy\n   module",
      Some (Ok (true, [ "naked-failwith"; "alloc-hot-path" ])) );
    ("never allow hashtbl order here", None);
    ("see lint: allow hashtbl-iter -- prose", None);
    ("lint: allow \xe2\x80\x94 the Frame IS the allocator", Some (Error ""));
    ("lint: allow hashtbl-iter", Some (Error ""));
    ("lint: allow hashtbl-iter --", Some (Error ""));
    ("lint: allow Hashtbl.iter -- upper case", Some (Error ""));
    ("lint: permit hashtbl-iter -- wrong verb", Some (Error ""));
  ]

let test_parse_allow () =
  List.iter
    (fun (text, want) ->
      let got =
        match Loader.parse_allow text with
        | Some (Error _) -> Some (Error "")
        | other -> other
      in
      Alcotest.(check bool) (Printf.sprintf "%S" text) true (got = want))
    allow_table

(* Each twin loads under a synthetic lib/ path: the dirty twin yields the
   listed (rule, line, context) findings and nothing else, the clean twin
   none at all (every annotation it carries suppresses a finding). *)
let hygiene_twins =
  [
    ( "hyg_hashtbl", "lib/store/hashtbl",
      [ ("SA045", 6, "keys:hashtbl-fold"); ("SA045", 7, "visit:hashtbl-iter");
        ("SA045", 10, "pairs:hashtbl-to-seq") ] );
    ( "hyg_failwith", "lib/store/failwith",
      [ ("SA046", 5, "parse:failwith"); ("SA046", 6, "check:failwith") ] );
    ( "hyg_alloc", "lib/store/alloc",
      [ ("SA047", 6, "header:alloc"); ("SA047", 7, "scratch:alloc");
        ("SA047", 8, "text:alloc") ] );
  ]

let test_hygiene_twins () =
  List.iter
    (fun (file, path, want) ->
      let load twin =
        det (path ^ "_" ^ twin ^ ".ml") (read_file (fixture (file ^ "_" ^ twin ^ ".ml")))
      in
      Alcotest.(check (list (triple string int string)))
        (file ^ " dirty") want
        (List.map
           (fun (f : Report.finding) ->
             (f.f_rule.Report.id, f.Report.f_line, f.Report.f_context))
           (load "dirty"));
      Alcotest.(check (list string)) (file ^ " clean") [] (ids (load "clean")))
    hygiene_twins

let test_hygiene_scope () =
  let src = read_file (fixture "hyg_alloc_dirty.ml") in
  Alcotest.(check (list string)) "alloc-hot-path is lib/store + lib/sim only" []
    (ids (det "lib/transport/alloc_dirty.ml" src));
  Alcotest.(check (list string)) "hygiene rules are lib/ only" []
    (ids (det "bin/tool.ml" "let f t = Hashtbl.iter (fun _ _ -> ()) t\nlet g () = failwith \"g\"\n"))

let test_stale_allow () =
  let findings =
    det "lib/core/a.ml"
      "(* lint: allow hashtbl-iter, naked-failwith -- both named *)\n\
       let f t = Hashtbl.iter (fun _ _ -> ()) t\n\
       (* lint: allow -- names nothing *)\n\
       let g x = x\n"
  in
  Alcotest.(check (list (pair int string))) "unused key and malformed annotation"
    [ (1, "allow:naked-failwith"); (3, "allow:malformed") ]
    (List.map
       (fun (f : Report.finding) -> (f.Report.f_line, f.Report.f_context))
       (find_rule findings "SA048"));
  Alcotest.(check (list string)) "the used key suppresses SA045" [ "SA048" ] (ids findings)

(* --- layering pass ------------------------------------------------------ *)

let test_rules =
  "layer util lib/util\n\
   layer core lib/core -> util\n\
   layer replica lib/replica -> util core\n\
   layer bin bin -> *\n\
   restrict Pool -> util\n\
   external Unix -> bin\n"

let rules () =
  match Layering.parse_rules test_rules with
  | Ok r -> r
  | Error e -> Alcotest.failf "rules did not parse: %s" e

let layering sources =
  let loaded =
    Loader.of_sources
      (List.map (fun (path, src) -> Loader.load_string ~path src) sources)
  in
  let sums = List.map (Summary.of_source loaded) loaded.Loader.sources in
  Layering.run (rules ()) (Graph.build sums)

let pool_src = "let submit _ _ = ()\nlet map_list _ _ _ = []\n"
let state_src = "let make x = x\n"

(* Table-driven: each row is (name, extra source, expected rule, expected
   context fragment). *)
let violation_table =
  [
    ( "clean dependency",
      ("lib/replica/node.ml", "let go x = State.make x\n"),
      None );
    ( "injected bad edge: core module uses Pool",
      ("lib/core/sched.ml", "let go p f = Pool.submit p f\n"),
      Some ("SA011", "go:Pool", 1) );
    ( "layer inversion: util reaches up into core",
      ("lib/util/helper.ml", "let h x = State.make x\n"),
      Some ("SA010", "h:State", 1) );
    ( "restricted external: Unix outside bin",
      ("lib/core/clock.ml", "let now () = Unix.gettimeofday ()\n"),
      Some ("SA012", "now:Unix", 1) );
    ( "unmapped directory",
      ("scripts/tool.ml", "let x = 1\n"),
      (* SA013 is a whole-file finding: no location, line 0 *)
      Some ("SA013", "unmapped", 0) );
  ]

let test_layering () =
  List.iter
    (fun (name, (path, src), expect) ->
      let findings =
        layering
          [ ("lib/util/pool.ml", pool_src); ("lib/core/state.ml", state_src);
            (path, src) ]
      in
      match expect with
      | None ->
        Alcotest.(check (list string)) (name ^ ": clean") [] (ids findings)
      | Some (rule, context, line) -> (
        match
          List.filter (fun (f : Report.finding) -> f.Report.f_path = path)
            findings
        with
        | [ f ] ->
          Alcotest.(check string) (name ^ ": rule") rule f.Report.f_rule.Report.id;
          Alcotest.(check string) (name ^ ": context") context
            f.Report.f_context;
          Alcotest.(check int) (name ^ ": line") line f.Report.f_line
        | l ->
          Alcotest.failf "%s: expected one finding in %s, got %d" name path
            (List.length l)))
    violation_table

let test_repo_rules_parse () =
  match Layering.load_rules rules_path with
  | Error e -> Alcotest.failf "repo rules did not parse: %s" e
  | Ok r ->
    List.iter
      (fun dir ->
        Alcotest.(check bool) (dir ^ " mapped") true (Layering.layer_of r dir <> None))
      [ "lib/util"; "lib/core"; "lib/replica"; "lib/staticcheck"; "bin";
        "bench" ]

(* SA041/SA042 fire on every path the effect table gives the [wall] or
   [random] atom; lib/transport is real-time by design. *)
let test_effect_table_reads () =
  Alcotest.(check (list string)) "Random.State.make_self_init" [ "SA042" ]
    (ids (det "lib/core/a.ml" "let st () = Random.State.make_self_init ()\n"));
  let gmtime = "let stamp () = Unix.gmtime 0.\n" in
  Alcotest.(check (list string)) "Unix.gmtime in lib/core" [ "SA012"; "SA041" ]
    (ids (det "lib/core/a.ml" gmtime @ layering [ ("lib/core/a.ml", gmtime) ]));
  Alcotest.(check (list string)) "Unix.gmtime in lib/transport is real-time" []
    (ids (det "lib/transport/a.ml" gmtime))

(* --- baseline ----------------------------------------------------------- *)

let mk_finding id path context =
  Report.finding ~rule_id:id ~path ~loc:Location.none ~context "m"

let test_baseline_roundtrip () =
  let f = mk_finding "SA040" "lib/core/a.ml" "f:compare" in
  let b = Baseline.of_keys [ Report.key f ] in
  Alcotest.(check bool) "mem after of_keys" true (Baseline.mem b f);
  Alcotest.(check bool) "other finding not covered" false
    (Baseline.mem b (mk_finding "SA041" "lib/core/a.ml" "f:wall-clock"))

let test_baseline_render_deterministic () =
  let fs =
    [ mk_finding "SA041" "lib/b.ml" "g:wall-clock";
      mk_finding "SA040" "lib/a.ml" "f:compare";
      mk_finding "SA040" "lib/a.ml" "f:compare" ]
  in
  let r1 = Baseline.render fs and r2 = Baseline.render (List.rev fs) in
  Alcotest.(check string) "order-insensitive and deduped" r1 r2;
  let keys =
    String.split_on_char '\n' r1
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  Alcotest.(check (list string)) "sorted unique keys"
    [ "SA040 lib/a.ml f:compare"; "SA041 lib/b.ml g:wall-clock" ] keys

(* The analyzer as built next to this suite, run from a scratch tree holding
   clean modules: a stale baseline key fails the run, a missing rules file
   or a DIR outside the tree stops it before any pass, and judging lib/core
   alone still reads the whole tree, so an export used only from
   lib/replica stays live. *)
let test_analyzer_exit_codes () =
  let bin = if String.equal root "" then "../bin/" else "_build/default/bin/" in
  let abs p = Filename.concat (Sys.getcwd ()) p in
  let exe = abs (bin ^ "tact_analyze.exe") in
  let effects_path =
    if Sys.file_exists "../analysis/effects.rules" then
      "../analysis/effects.rules"
    else "analysis/effects.rules"
  in
  let dir = Filename.temp_dir "tact_analyze" "" in
  let write path text =
    Out_channel.with_open_bin (Filename.concat dir path) (fun oc ->
        output_string oc text)
  in
  Sys.mkdir (Filename.concat dir "lib") 0o755;
  Sys.mkdir (Filename.concat dir "lib/core") 0o755;
  Sys.mkdir (Filename.concat dir "lib/replica") 0o755;
  write "lib/core/clean.ml" "let f x = x + 1\n";
  write "lib/core/api.mli" "val used : int -> int\n";
  write "lib/core/api.ml" "let used x = x + 1\n";
  write "lib/replica/user.ml" "let g x = Api.used x\n";
  write "fresh.baseline" "";
  write "stale.baseline" "SA020 lib/core/clean.ml def:f:gone\n";
  let run ?(rules = abs rules_path) ?(effect_rules = abs effects_path)
      ?(judged = "lib") baseline =
    Sys.command
      (Printf.sprintf
         "cd %s && %s --rules %s --effect-rules %s --baseline %s %s \
          > /dev/null 2>&1"
         (Filename.quote dir) (Filename.quote exe) (Filename.quote rules)
         (Filename.quote effect_rules) baseline judged)
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      Alcotest.(check int) "clean tree exits 0" 0 (run "fresh.baseline");
      Alcotest.(check int) "stale key exits 1" 1 (run "stale.baseline");
      Alcotest.(check int) "lib/core alone sees its lib/replica user" 0
        (run ~judged:"lib/core" "fresh.baseline");
      Alcotest.(check int) "a DIR outside the tree exits 2" 2
        (run ~judged:"scripts" "fresh.baseline");
      Alcotest.(check int) "missing effect rules exit 2" 2
        (run ~effect_rules:"absent.rules" "fresh.baseline");
      Alcotest.(check int) "missing layering rules exit 2" 2
        (run ~rules:"absent.rules" "fresh.baseline"))

(* --- renderers ---------------------------------------------------------- *)

let test_json_renders () =
  let fs =
    [ mk_finding "SA040" "lib/a.ml" "f:compare";
      mk_finding "SA020" "lib/b.ml" "def:run:tbl" ]
  in
  match Json.parse (Report.json_of ~baselined:(fun _ -> false) fs) with
  | Error e -> Alcotest.failf "json does not parse: %s" e
  | Ok j -> (
    match Json.to_list j with
    | Some l -> Alcotest.(check int) "one object per finding" 2 (List.length l)
    | None -> Alcotest.fail "expected a json array")

let test_sarif_renders () =
  let fs = [ mk_finding "SA040" "lib/a.ml" "f:compare" ] in
  let baselined f = Report.key f = Report.key (List.hd fs) in
  match Json.parse (Report.sarif_of ~baselined fs) with
  | Error e -> Alcotest.failf "sarif does not parse: %s" e
  | Ok j ->
    let get path j =
      List.fold_left
        (fun acc k -> Option.bind acc (Json.member k))
        (Some j) path
    in
    Alcotest.(check (option string)) "version" (Some "2.1.0")
      (Option.bind (get [ "version" ] j) Json.to_str);
    let results =
      Option.bind (get [ "runs" ] j) Json.to_list
      |> Fun.flip Option.bind (fun runs ->
             Option.bind (Json.member "results" (List.hd runs)) Json.to_list)
    in
    (match results with
    | Some [ r ] ->
      Alcotest.(check (option string)) "ruleId" (Some "SA040")
        (Option.bind (Json.member "ruleId" r) Json.to_str);
      Alcotest.(check (option string)) "baselineState" (Some "unchanged")
        (Option.bind (Json.member "baselineState" r) Json.to_str)
    | _ -> Alcotest.fail "expected one result")

let suite =
  [
    Alcotest.test_case "loader" `Quick test_loader;
    Alcotest.test_case "racy fixture flagged" `Quick test_racy_flagged;
    Alcotest.test_case "synced twin clean" `Quick test_synced_clean;
    Alcotest.test_case "module state SA030" `Quick test_module_state;
    Alcotest.test_case "bare compare" `Quick test_bare_compare;
    Alcotest.test_case "local compare not flagged" `Quick
      test_local_compare_not_flagged;
    Alcotest.test_case "aliased Stdlib.compare flagged" `Quick
      test_aliased_compare_flagged;
    Alcotest.test_case "wall clock" `Quick test_wall_clock;
    Alcotest.test_case "global random" `Quick test_global_random;
    Alcotest.test_case "obj magic" `Quick test_obj_magic;
    Alcotest.test_case "float equality scoped" `Quick test_float_equal_scoped;
    Alcotest.test_case "determinism lib-only" `Quick test_determinism_lib_only;
    Alcotest.test_case "allow annotation parser" `Quick test_parse_allow;
    Alcotest.test_case "hygiene twins (SA045-SA047)" `Quick test_hygiene_twins;
    Alcotest.test_case "hygiene scope" `Quick test_hygiene_scope;
    Alcotest.test_case "stale allow (SA048)" `Quick test_stale_allow;
    Alcotest.test_case "layering table" `Quick test_layering;
    Alcotest.test_case "repo rules parse" `Quick test_repo_rules_parse;
    Alcotest.test_case "baseline roundtrip" `Quick test_baseline_roundtrip;
    Alcotest.test_case "baseline render deterministic" `Quick
      test_baseline_render_deterministic;
    Alcotest.test_case "json renders" `Quick test_json_renders;
    Alcotest.test_case "sarif renders" `Quick test_sarif_renders;
    Alcotest.test_case "cross-module race via a call" `Quick
      test_cross_module_race;
    Alcotest.test_case "map_array task race" `Quick test_map_array_race;
    Alcotest.test_case "analyzer exit codes" `Quick test_analyzer_exit_codes;
    Alcotest.test_case "wall clock and random from the effect table" `Quick
      test_effect_table_reads;
  ]
