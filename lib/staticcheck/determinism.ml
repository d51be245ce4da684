(* Library directories that are real-time by design: they implement the
   TRANSPORT seam's production side (sockets, deadlines, wall clocks) and
   never run inside a simulation, so the wall-clock rule (SA041) does not
   apply there.  Every other determinism rule (polymorphic compare,
   unseeded Random, Obj.magic) still does. *)
let realtime_dirs = [ "lib/transport" ]

let lib_dir dir =
  String.length dir >= 4 && String.equal (String.sub dir 0 4) "lib/"

let float_dirs = [ "lib/core"; "lib/replica"; "lib/protocols"; "lib/check" ]

(* Wire hot paths: every simulated message send runs the store codecs and
   the simulated network, so a per-call buffer there is churn the
   Codec.Frame arena exists to eliminate. *)
let alloc_dirs = [ "lib/store"; "lib/sim" ]

let ctxt (r : Summary.vref) tail =
  (if String.equal r.r_def "" then "(toplevel)" else r.r_def) ^ ":" ^ tail

(* [Extern] paths arrive alias-chased, so [module S = Stdlib ... S.compare]
   shows up here as ["Stdlib"; "compare"].  SA041/SA042 read the effect
   table, so they and the effect pass never disagree. *)
let check_ref rules ~dir path (r : Summary.vref) =
  let hit rule_id tail msg =
    Some (Report.finding ~rule_id ~path ~loc:r.r_loc ~context:(ctxt r tail) msg)
  in
  match r.r_target with
  | Summary.Extern [ "compare" ] | Summary.Extern [ "Stdlib"; "compare" ] ->
    hit "SA040" "compare"
      "polymorphic compare walks arbitrary structure and breaks on \
       functional values; use a typed compare"
  | Summary.Extern [ "Obj"; "magic" ] ->
    hit "SA043" "Obj.magic" "Obj.magic defeats the type system"
  | Summary.Extern (_ :: _ as p) -> (
    let dotted = String.concat "." p in
    match Effects.classify rules dotted with
    | Some Effects.Wall_clock when not (List.mem dir realtime_dirs) ->
      hit "SA041" "wall-clock"
        "wall-clock read breaks simulation determinism; use the simulated \
         clock"
    | Some Effects.Unseeded_random ->
      hit "SA042" dotted
        "unseeded Random state breaks run-to-run determinism; use a seeded \
         Random.State"
    | _ -> None)
  | _ -> None

(* The source-hygiene rules: each hit carries the annotation key that
   suppresses it.  The Hashtbl arm asks the effect table which paths
   iterate in table order, so the two never disagree. *)
let hygiene_ref rules ~dir path (r : Summary.vref) =
  let hit rule_id key tail msg =
    Some (key, Report.finding ~rule_id ~path ~loc:r.r_loc ~context:(ctxt r tail) msg)
  in
  match r.r_target with
  | Summary.Extern ([ "failwith" ] | [ "Stdlib"; "failwith" ]) ->
    hit "SA046" "naked-failwith" "failwith"
      "failwith raises an anonymous Failure; use invalid_arg or a typed \
       exception"
  | Summary.Extern
      ( [ ("Bytes" | "Buffer"); "create" ]
      | [ "Stdlib"; ("Bytes" | "Buffer"); "create" ] )
    when List.mem dir alloc_dirs ->
    hit "SA047" "alloc-hot-path" "alloc"
      "per-call buffer allocation on a wire hot path; encode through the \
       Codec.Frame arena"
  | Summary.Extern (_ :: _ as p) -> (
    let dotted = String.concat "." p in
    match Effects.classify rules dotted with
    | Some Effects.Hashtbl_iter ->
      let key = Effects.hashtbl_key dotted in
      hit "SA045" key key
        (Printf.sprintf "%s visits entries in unspecified order" dotted)
    | _ -> None)
  | _ -> None

(* SA048: an annotation that does not parse, or a key it names that
   covers no hygiene hit.  [raw] holds every hit before suppression. *)
let stale_allows path (src : Loader.source) raw =
  let at line =
    let p = { Lexing.pos_fname = path; pos_lnum = line; pos_bol = 0; pos_cnum = 0 } in
    { Location.loc_start = p; loc_end = p; loc_ghost = false }
  in
  List.map
    (fun (line, why) ->
      Report.finding ~rule_id:"SA048" ~path ~loc:(at line) ~context:"allow:malformed"
        ("malformed lint annotation: " ^ why))
    src.Loader.s_allow_errors
  @ List.concat_map
      (fun (a : Loader.allow) ->
        List.filter_map
          (fun key ->
            let used (k, line) = String.equal k key && Loader.covers a ~rule:key line in
            if List.exists used raw then None
            else
              Some
                (Report.finding ~rule_id:"SA048" ~path ~loc:(at a.a_line)
                   ~context:("allow:" ^ key)
                   (Printf.sprintf "lint: allow %s suppresses nothing here" key)))
          a.a_rules)
      src.Loader.s_allows

let run rules sums =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  List.iter
    (fun (s : Summary.t) ->
      let src = s.sum_source in
      let path = src.Loader.s_path and dir = src.Loader.s_dir in
      if lib_dir dir then begin
        let raw = ref [] in
        List.iter
          (fun (r : Summary.vref) ->
            Option.iter emit (check_ref rules ~dir path r);
            match hygiene_ref rules ~dir path r with
            | None -> ()
            | Some (key, f) ->
              let line = r.r_loc.Location.loc_start.Lexing.pos_lnum in
              raw := (key, line) :: !raw;
              if not (Loader.allowed src ~rule:key line) then emit f)
          s.sum_refs;
        List.iter emit (stale_allows path src !raw)
      end;
      if List.mem dir float_dirs then
        List.iter
          (fun (fe : Summary.float_eq) ->
            emit
              (Report.finding ~rule_id:"SA044" ~path ~loc:fe.fe_loc
                 ~context:
                   ((if String.equal fe.fe_def "" then "(toplevel)"
                     else fe.fe_def)
                   ^ ":" ^ fe.fe_op)
                 (Printf.sprintf
                    "exact float (%s) comparison on a metrics/bounds path; \
                     compare against an epsilon"
                    fe.fe_op)))
          s.sum_float_eqs)
    sums;
  Report.dedup !findings
