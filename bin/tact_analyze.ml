(* tact_analyze — the AST-based static analyzer.

   Parses one fixed universe — lib, bin, bench, test, examples and
   perfbench — with compiler-libs, summarises each module once, builds the
   cross-module reference graph and the value-level call graph, then runs
   the layering, domain-race, determinism and source-hygiene, interface and
   interprocedural effect passes over that one graph (see doc/ANALYSIS.md
   for the SA0xx catalogue and the [(* lint: allow <key> -- why *)]
   suppression syntax).

   Usage:
     tact_analyze [--rules FILE] [--effect-rules FILE] [--baseline FILE]
                  [--update-baseline] [--json] [--sarif FILE] [--graph]
                  [--dot FILE] [--effects] [--why SYMBOL] [DIR ...]

   The DIRs only choose the judged directories: findings are reported on
   files under them (default lib bin bench), while every reference in the
   universe counts — a test-only or benchmark-only consumer keeps an export
   alive for SA004.  --graph, --dot and --why span the whole universe.
   Defaults: rules = analysis/layering.rules, effect rules =
   analysis/effects.rules, baseline = analysis/tact_analyze.baseline.
   Exit 1 when any finding is not covered by the baseline, or when a
   baseline key on a judged file matches no finding (stale); exit 2 when
   either rules file is missing or does not parse, or a DIR lies outside
   the universe. *)

open Tact_staticcheck

let usage () =
  prerr_endline
    "usage: tact_analyze [--rules FILE] [--effect-rules FILE] \
     [--baseline FILE] [--update-baseline] [--json] [--sarif FILE] \
     [--graph] [--dot FILE] [--effects] [--why SYMBOL] [DIR ...]";
  exit 2

type opts = {
  mutable rules_file : string;
  mutable effect_rules_file : string;
  mutable baseline_file : string;
  mutable update_baseline : bool;
  mutable json : bool;
  mutable sarif : string option;
  mutable graph_dump : bool;
  mutable dot : string option;
  mutable effects_only : bool;
  mutable why : string option;
  mutable dirs : string list;
}

let parse_args () =
  let o =
    { rules_file = "analysis/layering.rules";
      effect_rules_file = "analysis/effects.rules";
      baseline_file = "analysis/tact_analyze.baseline";
      update_baseline = false;
      json = false;
      sarif = None;
      graph_dump = false;
      dot = None;
      effects_only = false;
      why = None;
      dirs = [] }
  in
  let rec go = function
    | [] -> ()
    | "--rules" :: f :: rest -> o.rules_file <- f; go rest
    | "--effect-rules" :: f :: rest -> o.effect_rules_file <- f; go rest
    | "--baseline" :: f :: rest -> o.baseline_file <- f; go rest
    | "--update-baseline" :: rest -> o.update_baseline <- true; go rest
    | "--json" :: rest -> o.json <- true; go rest
    | "--sarif" :: f :: rest -> o.sarif <- Some f; go rest
    | "--graph" :: rest -> o.graph_dump <- true; go rest
    | "--dot" :: f :: rest -> o.dot <- Some f; go rest
    | "--effects" :: rest -> o.effects_only <- true; go rest
    | "--why" :: s :: rest -> o.why <- Some s; go rest
    | ("--rules" | "--effect-rules" | "--baseline" | "--sarif" | "--dot"
      | "--why")
      :: [] ->
      usage ()
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | d :: rest -> o.dirs <- d :: o.dirs; go rest
  in
  go (Array.to_list Sys.argv |> List.tl);
  if o.dirs = [] then o.dirs <- [ "lib"; "bin"; "bench" ]
  else o.dirs <- List.rev o.dirs;
  o

(* Every run loads and summarises this one tree; DIRs only choose which
   findings are reported.  perfbench is read, never judged by default. *)
let universe = [ "lib"; "bin"; "bench"; "test"; "examples"; "perfbench" ]

let dump_graph graph =
  List.iter
    (fun (e : Graph.edge) ->
      Printf.printf "%s/%s -> %s/%s (%s:%d in %s)\n" e.e_src.n_dir
        e.e_src.n_mod e.e_dst.n_dir e.e_dst.n_mod
        e.e_loc.Location.loc_start.Lexing.pos_fname
        e.e_loc.Location.loc_start.Lexing.pos_lnum
        (if String.equal e.e_def "" then "(toplevel)" else e.e_def))
    (Graph.module_edges graph)

let read_file path =
  match open_in_bin path with
  | ic ->
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    Ok text
  | exception Sys_error e -> Error e

(* Both rules files are required: without the effect table there is no
   trusted boundary and no det core, without the layer table no layering. *)
let load_rules what path load =
  match load path with
  | Ok rules -> rules
  | Error e ->
    Printf.eprintf "tact_analyze: %s rules %s: %s\n" what path e;
    exit 2

(* A path a run over [dirs] judges: one under a judged directory. *)
let under dirs path =
  List.exists
    (fun d ->
      let d = if String.ends_with ~suffix:"/" d then d else d ^ "/" in
      String.starts_with ~prefix:d path)
    dirs

let () =
  let o = parse_args () in
  List.iter
    (fun d ->
      if not (under universe (d ^ "/")) then begin
        Printf.eprintf "tact_analyze: %s is outside the analyzed tree (%s)\n" d
          (String.concat " " universe);
        exit 2
      end)
    o.dirs;
  let effect_rules =
    load_rules "effect" o.effect_rules_file (fun p ->
        Result.bind (read_file p) Effects.parse_rules)
  in
  let layering_rules = load_rules "layering" o.rules_file Layering.load_rules in
  let loaded = Loader.load_dirs universe in
  let sums = List.map (Summary.of_source loaded) loaded.Loader.sources in
  let graph = Graph.build sums in
  if o.graph_dump then begin
    dump_graph graph;
    exit 0
  end;
  let cg = Callgraph.build graph in
  let eff = Effects.infer effect_rules graph cg in
  (match o.dot with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (Callgraph.dot cg);
    close_out oc
  | None -> ());
  (match o.why with
  | Some sym ->
    List.iter print_endline (Effects.why eff sym);
    exit 0
  | None -> ());
  let findings =
    List.filter
      (fun (f : Report.finding) -> under o.dirs f.Report.f_path)
      (if o.effects_only then Effects.run eff
       else
         Report.dedup
           (Interfaces.run graph
           @ Layering.run layering_rules graph
           @ Races.run eff @ Determinism.run effect_rules sums
           @ Effects.run eff))
  in
  let old_baseline = Baseline.load o.baseline_file in
  let stale = Baseline.stale old_baseline findings in
  if o.update_baseline then begin
    Baseline.save o.baseline_file findings;
    Printf.printf "tact_analyze: wrote %d baseline entr%s to %s%s\n"
      (List.length findings)
      (if List.length findings = 1 then "y" else "ies")
      o.baseline_file
      (match List.length stale with
      | 0 -> ""
      | n -> Printf.sprintf " (pruned %d stale)" n);
    exit 0
  end;
  (* A stale key matches nothing: the finding it excused is gone, so the
     entry only masks future regressions that happen to collide with it.
     An --effects run judges too few rules to tell. *)
  let stale =
    if o.effects_only then []
    else
      List.filter
        (fun key ->
          match String.split_on_char ' ' key with
          | _ :: path :: _ -> under o.dirs path
          | _ -> false)
        stale
  in
  if stale <> [] then
    Printf.eprintf
      "tact_analyze: %d stale baseline key(s) in %s (prune with \
       --update-baseline):\n"
      (List.length stale) o.baseline_file;
  List.iter (fun k -> Printf.eprintf "  %s\n" k) stale;
  let baselined = Baseline.mem old_baseline in
  let fresh = List.filter (fun f -> not (baselined f)) findings in
  (match o.sarif with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (Report.sarif_of ~baselined findings);
    close_out oc
  | None -> ());
  if o.json then print_string (Report.json_of ~baselined findings)
  else begin
    List.iter (fun f -> print_endline (Report.to_text f)) fresh;
    Printf.printf
      "tact_analyze: %d file(s), %d finding(s), %d baselined, %d new\n"
      (List.length
         (List.filter
            (fun (s : Loader.source) -> under o.dirs s.s_path)
            loaded.Loader.sources))
      (List.length findings)
      (List.length findings - List.length fresh)
      (List.length fresh)
  end;
  if fresh <> [] || stale <> [] then exit 1
