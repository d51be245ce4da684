type severity = Error | Warning | Info

type rule = { id : string; title : string; advice : string; severity : severity }

let rules =
  [
    { id = "SA001"; title = "syntax-error";
      advice = "the file does not parse; the AST passes cannot see it";
      severity = Error };
    { id = "SA004"; title = "dead-exported-api";
      advice =
        "exported in the .mli but referenced by no other module in the \
         loaded universe (lib/bin/bench/test/examples/perfbench); narrow \
         the interface or delete the value";
      severity = Info };
    { id = "SA010"; title = "layer-violation";
      advice =
        "dependency not allowed by analysis/layering.rules; lower layers \
         must not reach up";
      severity = Error };
    { id = "SA011"; title = "restricted-module";
      advice =
        "this project module is restricted to designated layers \
         (analysis/layering.rules `restrict`); route through the sanctioned \
         wrapper instead";
      severity = Error };
    { id = "SA012"; title = "restricted-external";
      advice =
        "this external module is restricted to designated layers \
         (analysis/layering.rules `external`)";
      severity = Error };
    { id = "SA013"; title = "unmapped-file";
      advice =
        "file is under no layer in analysis/layering.rules; add its \
         directory to a layer";
      severity = Warning };
    { id = "SA020"; title = "domain-race";
      advice =
        "module-level mutable state is reachable from a Pool task without \
         going through the Sync wrappers; parallel tasks may race on it";
      severity = Error };
    { id = "SA021"; title = "captured-mutation";
      advice =
        "a Pool task closure mutates state captured from the enclosing \
         scope; use Sync.Cell/Sync.Counter/Sync.Map or return a value";
      severity = Error };
    { id = "SA030"; title = "module-state";
      advice =
        "mutable module-level state breaks re-entrancy; the interleaving \
         checker replays runs in-process, so scope it inside a value";
      severity = Warning };
    { id = "SA040"; title = "polymorphic-compare";
      advice =
        "polymorphic compare; use a typed one (Int.compare, Float.compare, \
         Write.compare_id, ...)";
      severity = Error };
    { id = "SA041"; title = "wall-clock";
      advice =
        "wall-clock read breaks simulation determinism; use the engine's \
         virtual time";
      severity = Error };
    { id = "SA042"; title = "global-random";
      advice =
        "unseeded Random state breaks run-to-run determinism; use a seeded \
         Random.State";
      severity = Error };
    { id = "SA043"; title = "obj-magic";
      advice = "Obj.magic defeats the type system";
      severity = Error };
    { id = "SA044"; title = "float-equal";
      advice =
        "float =/<> against a literal is exact; use Float.equal or an \
         epsilon comparison (metrics/bounds arithmetic accumulates rounding \
         error)";
      severity = Warning };
    { id = "SA045"; title = "hashtbl-order";
      advice =
        "Hashtbl iteration order is unspecified; sort first, or annotate an \
         order-independent site (lint: allow hashtbl-<fn> -- why)";
      severity = Error };
    { id = "SA046"; title = "naked-failwith";
      advice =
        "failwith raises an anonymous Failure; use invalid_arg or a typed \
         exception, or annotate (lint: allow naked-failwith -- why)";
      severity = Error };
    { id = "SA047"; title = "alloc-hot-path";
      advice =
        "per-call buffer allocation on a wire hot path (lib/store, \
         lib/sim); encode through the reusable Codec.Frame arena, or \
         annotate a cold path (lint: allow alloc-hot-path -- why)";
      severity = Error };
    { id = "SA048"; title = "stale-allow";
      advice =
        "a lint: allow annotation that does not parse, or names a key that \
         suppresses nothing on the lines it covers; fix or delete it";
      severity = Warning };
    { id = "SA050"; title = "det-core-wall-clock";
      advice =
        "a wall-clock read is transitively reachable from the \
         deterministic core (effects.rules `root det`); a replay that \
         consults real time cannot reproduce";
      severity = Error };
    { id = "SA051"; title = "det-core-random";
      advice =
        "unseeded global Random state is transitively reachable from the \
         deterministic core; thread a seeded Random.State instead";
      severity = Error };
    { id = "SA052"; title = "det-core-hashtbl-order";
      advice =
        "Hashtbl iteration order is transitively reachable from the \
         deterministic core; sort keys first or annotate the site \
         order-independent (lint: allow hashtbl-...)";
      severity = Error };
    { id = "SA053"; title = "det-core-widened";
      advice =
        "the effect fixpoint lost track here: a function value read out \
         of a mutable container is applied on a path reachable from the \
         deterministic core, so its effects are unknown (widened to top); \
         this is the analysis' trust seam — verify the stored functions \
         by hand or restructure to direct calls";
      severity = Warning };
    { id = "SA060"; title = "pool-task-blocking-syscall";
      advice =
        "a blocking Unix syscall is reachable from a Pool task body; a \
         blocked worker starves the fixed-size domain pool";
      severity = Error };
    { id = "SA061"; title = "pool-task-blocking-sync";
      advice =
        "Mutex.lock / Condition.wait / Domain spawn-join is reachable \
         from a Pool task body; tasks that block on each other can \
         deadlock the fixed worker set — use the Sync wrappers";
      severity = Error };
    { id = "SA062"; title = "pool-task-raises";
      advice =
        "an unhandled failwith/raise is reachable from a Pool task body; \
         the exception is rethrown at await, cancelling sibling results — \
         catch inside the task if partial results matter";
      severity = Warning };
    { id = "SA063"; title = "entrypoint-exception-escape";
      advice =
        "a failwith/raise chain reaches this bin/ entrypoint with no \
         intervening handler; the tool dies with an uncaught exception \
         instead of a usage message and exit code";
      severity = Warning };
    { id = "SA064"; title = "effect-annotation-drift";
      advice =
        "the definition is declared `(* effects: pure *)` but the \
         inferred summary is not empty; fix the code or drop the \
         annotation — checked documentation must not lie";
      severity = Error };
  ]

let rule id =
  match List.find_opt (fun r -> String.equal r.id id) rules with
  | Some r -> r
  | None -> invalid_arg ("Report.rule: unknown rule id " ^ id)

type finding = {
  f_rule : rule;
  f_path : string;
  f_line : int;
  f_col : int;
  f_context : string;
  f_message : string;
}

let finding ~rule_id ~path ~loc ~context message =
  let p = loc.Location.loc_start in
  {
    f_rule = rule rule_id;
    f_path = path;
    f_line = p.Lexing.pos_lnum;
    f_col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    f_context = context;
    f_message = message;
  }

let key f = Printf.sprintf "%s %s %s" f.f_rule.id f.f_path f.f_context

let compare_findings a b =
  match String.compare a.f_path b.f_path with
  | 0 -> (
    match Int.compare a.f_line b.f_line with
    | 0 -> (
      match Int.compare a.f_col b.f_col with
      | 0 -> (
        match String.compare a.f_rule.id b.f_rule.id with
        | 0 -> String.compare a.f_context b.f_context
        | c -> c)
      | c -> c)
    | c -> c)
  | c -> c

let dedup fs =
  let sorted = List.sort compare_findings fs in
  let rec go = function
    | a :: b :: rest
      when String.equal (key a) (key b) && a.f_line = b.f_line
           && a.f_col = b.f_col ->
      go (a :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go sorted

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let to_text f =
  Printf.sprintf "%s:%d:%d: [%s %s] %s\n  %s" f.f_path f.f_line (f.f_col + 1)
    f.f_rule.id f.f_rule.title f.f_message f.f_rule.advice

(* --- JSON -------------------------------------------------------------- *)

module Json = Tact_util.Json

let json_of_finding ~baselined f =
  Json.Obj
    [
      ("rule", Json.Str f.f_rule.id);
      ("title", Json.Str f.f_rule.title);
      ("severity", Json.Str (severity_name f.f_rule.severity));
      ("path", Json.Str f.f_path);
      ("line", Json.Num (float_of_int f.f_line));
      ("col", Json.Num (float_of_int (f.f_col + 1)));
      ("context", Json.Str f.f_context);
      ("message", Json.Str f.f_message);
      ("baselined", Json.Bool (baselined f));
    ]

let json_of ~baselined fs =
  Json.to_string (Json.Arr (List.map (json_of_finding ~baselined) fs))

(* --- SARIF 2.1.0 ------------------------------------------------------- *)

let sarif_level = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "note"

let sarif_of ~baselined fs =
  let rule_meta r =
    Json.Obj
      [
        ("id", Json.Str r.id);
        ("name", Json.Str r.title);
        ("shortDescription", Json.Obj [ ("text", Json.Str r.advice) ]);
        ( "defaultConfiguration",
          Json.Obj [ ("level", Json.Str (sarif_level r.severity)) ] );
      ]
  in
  let rule_index r =
    let rec idx i = function
      | [] -> -1
      | x :: rest -> if String.equal x.id r.id then i else idx (i + 1) rest
    in
    idx 0 rules
  in
  let result f =
    Json.Obj
      [
        ("ruleId", Json.Str f.f_rule.id);
        ("ruleIndex", Json.Num (float_of_int (rule_index f.f_rule)));
        ("level", Json.Str (sarif_level f.f_rule.severity));
        ("message", Json.Obj [ ("text", Json.Str f.f_message) ]);
        ( "locations",
          Json.Arr
            [
              Json.Obj
                [
                  ( "physicalLocation",
                    Json.Obj
                      [
                        ( "artifactLocation",
                          Json.Obj [ ("uri", Json.Str f.f_path) ] );
                        ( "region",
                          Json.Obj
                            [
                              ("startLine", Json.Num (float_of_int f.f_line));
                              ( "startColumn",
                                Json.Num (float_of_int (f.f_col + 1)) );
                            ] );
                      ] );
                ];
            ] );
        ( "partialFingerprints",
          Json.Obj [ ("tactAnalyzeKey/v1", Json.Str (key f)) ] );
        ( "baselineState",
          Json.Str (if baselined f then "unchanged" else "new") );
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ( "$schema",
           Json.Str
             "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
         );
         ("version", Json.Str "2.1.0");
         ( "runs",
           Json.Arr
             [
               Json.Obj
                 [
                   ( "tool",
                     Json.Obj
                       [
                         ( "driver",
                           Json.Obj
                             [
                               ("name", Json.Str "tact_analyze");
                               ( "informationUri",
                                 Json.Str "doc/ANALYSIS.md" );
                               ("rules", Json.Arr (List.map rule_meta rules));
                             ] );
                       ] );
                   ("results", Json.Arr (List.map result fs));
                 ];
             ] );
       ])
