(* Interprocedural effect & purity inference.

   Every definition gets an effect summary: the set of effect atoms its
   body performs directly plus everything reachable through the value-level
   call graph (Callgraph).  Direct atoms come from three places — external
   references classified by the analysis/effects.rules table, mutations of
   module-level state recorded by Summary, and higher-order escapes (a
   function applied out of a record field or ref cell), which widen the
   summary to ⊤ since the callee is unknowable.  Propagation runs bottom-up
   over Tarjan SCCs, so mutual recursion converges in one pass; a
   definition containing a try-handler absorbs the Raises atoms of its
   callees; directories listed as `trust` contribute nothing and are not
   traversed.

   Rule families on top of the fixpoint: SA050-SA053 (nondeterministic
   atoms reachable from the `root det` modules), SA060-SA062 (blocking or
   raising effects reachable from Pool task bodies), SA063 (raise chains
   reaching a bin/ entrypoint unhandled), SA064 (`(* effects: pure *)`
   annotations contradicted by the inferred summary).  Every finding
   carries the full call chain from root to culprit. *)

module SMap = Map.Make (String)

(* --- atoms ------------------------------------------------------------- *)

type atom =
  | Wall_clock
  | Unseeded_random
  | Hashtbl_iter
  | Global_mutation of string
  | Blocking of string
  | Raises of string
  | Domain_spawn
  | Widened of string

let atom_rank = function
  | Wall_clock -> 0
  | Unseeded_random -> 1
  | Hashtbl_iter -> 2
  | Global_mutation _ -> 3
  | Blocking _ -> 4
  | Raises _ -> 5
  | Domain_spawn -> 6
  | Widened _ -> 7

let atom_payload = function
  | Global_mutation s | Blocking s | Raises s | Widened s -> s
  | Wall_clock | Unseeded_random | Hashtbl_iter | Domain_spawn -> ""

let compare_atom a b =
  match Int.compare (atom_rank a) (atom_rank b) with
  | 0 -> String.compare (atom_payload a) (atom_payload b)
  | c -> c

let atom_label = function
  | Wall_clock -> "wall-clock"
  | Unseeded_random -> "random"
  | Hashtbl_iter -> "hashtbl-iter"
  | Global_mutation g -> "mutates:" ^ g
  | Blocking p -> "blocks:" ^ p
  | Raises p -> "raises:" ^ p
  | Domain_spawn -> "domain-spawn"
  | Widened w -> "widened:" ^ w

module AtomSet = Set.Make (struct
  type t = atom

  let compare = compare_atom
end)

module AtomMap = Map.Make (struct
  type t = atom

  let compare = compare_atom
end)

(* --- rules table ------------------------------------------------------- *)

type kind = Wall | Random | Hash | Block | Raise | Domain | Pure

type rules = {
  ru_entries : (string * kind) list;  (* pattern -> kind, first match wins *)
  ru_trust : string list;
  ru_det_roots : (string * string) list;  (* (dir, module) *)
}

let kind_of = function
  | "wall" -> Some Wall
  | "random" -> Some Random
  | "hashtbl" -> Some Hash
  | "block" -> Some Block
  | "raise" -> Some Raise
  | "domain" -> Some Domain
  | _ -> None

let split_ws line =
  let line = String.map (fun c -> if c = '\t' then ' ' else c) line in
  List.filter
    (fun t -> String.length t > 0)
    (String.split_on_char ' ' line)

let parse_rules text =
  let error = ref None in
  let fail lnum msg =
    if Option.is_none !error then
      error := Some (Printf.sprintf "line %d: %s" (lnum + 1) msg)
  in
  let entries = ref [] in
  let trust = ref [] in
  let roots = ref [] in
  List.iteri
    (fun lnum line ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      match split_ws line with
      | [] -> ()
      | "atom" :: k :: (_ :: _ as pats) -> (
        match kind_of k with
        | Some kind ->
          entries := !entries @ List.map (fun p -> (p, kind)) pats
        | None -> fail lnum ("unknown atom kind " ^ k))
      | [ "atom" ] | [ "atom"; _ ] -> fail lnum "atom needs a kind and patterns"
      | "pure" :: (_ :: _ as pats) ->
        entries := !entries @ List.map (fun p -> (p, Pure)) pats
      | [ "pure" ] -> fail lnum "pure needs patterns"
      | [ "assume"; "pure" ] -> ()
      | "assume" :: _ -> fail lnum "only `assume pure` is supported"
      | "trust" :: (_ :: _ as dirs) -> trust := !trust @ dirs
      | [ "trust" ] -> fail lnum "trust needs directories"
      | "root" :: "det" :: (_ :: _ as specs) ->
        List.iter
          (fun spec ->
            match String.rindex_opt spec '/' with
            | Some i ->
              roots :=
                !roots
                @ [
                    ( String.sub spec 0 i,
                      String.sub spec (i + 1) (String.length spec - i - 1) );
                  ]
            | None -> fail lnum ("root spec must be dir/Module: " ^ spec))
          specs
      | "root" :: _ -> fail lnum "only `root det dir/Module ...` is supported"
      | tok :: _ -> fail lnum ("unknown directive " ^ tok))
    (String.split_on_char '\n' text);
  match !error with
  | Some e -> Error e
  | None ->
    Ok { ru_entries = !entries; ru_trust = !trust; ru_det_roots = !roots }

let strip_stdlib path =
  let pre = "Stdlib." in
  let plen = String.length pre in
  if String.length path > plen && String.equal (String.sub path 0 plen) pre
  then String.sub path plen (String.length path - plen)
  else path

let pat_match pat path =
  let plen = String.length pat in
  if plen >= 2 && String.equal (String.sub pat (plen - 2) 2) ".*" then begin
    let prefix = String.sub pat 0 (plen - 2) in
    let flen = String.length prefix in
    String.equal path prefix
    || String.length path > flen + 1
       && String.equal (String.sub path 0 (flen + 1)) (prefix ^ ".")
  end
  else String.equal pat path

(* First matching entry decides; [Pure] stops the scan with no atom, and an
   unmatched path is assumed pure (the `assume pure` default). *)
let classify rules path =
  let path = strip_stdlib path in
  let rec go = function
    | [] -> None
    | (pat, kind) :: rest ->
      if pat_match pat path then
        match kind with
        | Pure -> None
        | Wall -> Some Wall_clock
        | Random -> Some Unseeded_random
        | Hash -> Some Hashtbl_iter
        | Block -> Some (Blocking path)
        | Raise -> Some (Raises path)
        | Domain -> Some Domain_spawn
      else go rest
  in
  go rules.ru_entries

let trusted rules dir = List.exists (String.equal dir) rules.ru_trust

(* --- direct atoms ------------------------------------------------------ *)

let contains hay needle =
  let hn = String.length hay and nn = String.length needle in
  let found = ref false in
  for k = 0 to hn - nn do
    if String.equal (String.sub hay k nn) needle then found := true
  done;
  !found

(* The annotation key that declares a Hashtbl-order site order-independent:
   [hashtbl-iter] for [Hashtbl.iter], [hashtbl-to-seq-keys] for
   [Hashtbl.to_seq_keys].  Shared by SA052 here and SA045 (Determinism). *)
let hashtbl_key path =
  let fn =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  "hashtbl-" ^ String.map (fun c -> if c = '_' then '-' else c) fn

(* A Hashtbl-order atom at a site annotated [lint: allow hashtbl-<fn>] is
   dropped — the site already declared itself order-independent. *)
let allowed_atom src path (r : Summary.vref) = function
  | Hashtbl_iter ->
    Loader.allowed src ~rule:(hashtbl_key path)
      r.r_loc.Location.loc_start.Lexing.pos_lnum
  | _ -> false

(* The external dotted path of a reference for table classification:
   [Extern] paths, and [Proj] paths into modules the loader has not seen
   (those are outside the universe, so the rules table is all we have). *)
let extern_path graph (r : Summary.vref) =
  match r.Summary.r_target with
  | Summary.Extern [] | Summary.Local | Summary.Self _ -> None
  | Summary.Extern p -> Some (String.concat "." p)
  | Summary.Proj { p_dir; p_mod; p_path } -> (
    match Graph.find graph ~dir:p_dir ~modname:p_mod with
    | Some _ -> None
    | None ->
      Some (if String.equal p_path "" then p_mod else p_mod ^ "." ^ p_path))

(* A reference that resolves to a non-Sync mutable global: touching shared
   mutable state is itself an effect (reads are interleaving-dependent). *)
let global_touch graph s target =
  Option.map
    (fun ((dst : Summary.t), (g : Summary.mutable_global)) ->
      dst.sum_source.Loader.s_module ^ "." ^ g.mg_name)
    (Callgraph.target_global graph s target)

(* A mutation names its global even when the target is no known one. *)
let canon_mutation graph (s : Summary.t) (mu : Summary.mutation) =
  match (global_touch graph s mu.mu_target, mu.mu_target) with
  | (Some _ as g), _ -> g
  | None, Summary.Self path -> Some (s.sum_source.Loader.s_module ^ "." ^ path)
  | None, Summary.Proj { p_mod; p_path; _ } -> Some (p_mod ^ "." ^ p_path)
  | None, (Summary.Local | Summary.Extern _) -> None

type eff = {
  e_rules : rules;
  e_graph : Graph.t;
  e_cg : Callgraph.t;
  e_direct : (AtomSet.t * Location.t AtomMap.t) SMap.t;
  e_summ : AtomSet.t SMap.t;
}

let direct_of_summary rules graph (s : Summary.t) acc =
  let src = s.Summary.sum_source in
  if trusted rules src.Loader.s_dir then acc
  else begin
    let acc = ref acc in
    let add def atom loc =
      let k =
        Callgraph.key
          { Callgraph.cg_dir = src.Loader.s_dir;
            cg_mod = src.Loader.s_module;
            cg_def = def }
      in
      acc :=
        SMap.update k
          (function
            | None -> Some (AtomSet.singleton atom, AtomMap.singleton atom loc)
            | Some (set, locs) ->
              Some
                ( AtomSet.add atom set,
                  if AtomMap.mem atom locs then locs
                  else AtomMap.add atom loc locs ))
          !acc
    in
    List.iter
      (fun (r : Summary.vref) ->
        (match extern_path graph r with
        | None -> ()
        | Some p -> (
          match classify rules p with
          | Some a when not (allowed_atom src p r a) -> add r.r_def a r.r_loc
          | _ -> ()));
        match global_touch graph s r.r_target with
        | Some g -> add r.r_def (Global_mutation g) r.r_loc
        | None -> ())
      s.sum_refs;
    List.iter
      (fun (mu : Summary.mutation) ->
        match canon_mutation graph s mu with
        | Some g -> add mu.mu_def (Global_mutation g) mu.mu_loc
        | None -> ())
      s.sum_mutations;
    List.iter
      (fun (esc : Summary.escape) ->
        add esc.esc_def (Widened esc.esc_what) esc.esc_loc)
      s.sum_escapes;
    !acc
  end

(* --- fixpoint ---------------------------------------------------------- *)

let drop_raises set =
  AtomSet.filter (function Raises _ -> false | _ -> true) set

let infer rules graph cg =
  let direct =
    List.fold_left
      (fun acc s -> direct_of_summary rules graph s acc)
      SMap.empty (Graph.summaries graph)
  in
  let direct_atoms k =
    match SMap.find_opt k direct with
    | Some (set, _) -> set
    | None -> AtomSet.empty
  in
  let is_handler (n : Callgraph.node) =
    match Graph.find graph ~dir:n.cg_dir ~modname:n.cg_mod with
    | Some s -> List.exists (String.equal n.cg_def) s.sum_handlers
    | None -> false
  in
  let summ = ref SMap.empty in
  (* Bottom-up over the SCC condensation.  Within an SCC every member
     reaches every other, so the union of member direct atoms and
     out-of-SCC callee summaries is already the fixpoint — one pass. *)
  List.iter
    (fun scc ->
      let base =
        List.fold_left
          (fun b (m : Callgraph.node) ->
            if trusted rules m.cg_dir then b
            else begin
              let b = AtomSet.union b (direct_atoms (Callgraph.key m)) in
              List.fold_left
                (fun b ((w : Callgraph.node), _) ->
                  if trusted rules w.cg_dir then b
                  else
                    match SMap.find_opt (Callgraph.key w) !summ with
                    | Some s -> AtomSet.union b s
                    | None -> b)
                b (Callgraph.succs cg m)
            end)
          AtomSet.empty scc
      in
      List.iter
        (fun (m : Callgraph.node) ->
          let s =
            if trusted rules m.cg_dir then AtomSet.empty
            else if is_handler m then drop_raises base
            else base
          in
          summ := SMap.add (Callgraph.key m) s !summ)
        scc)
    (Callgraph.sccs cg);
  { e_rules = rules; e_graph = graph; e_cg = cg; e_direct = direct;
    e_summ = !summ }

let judged eff =
  List.filter
    (fun (s : Summary.t) -> not (trusted eff.e_rules s.sum_source.Loader.s_dir))
    (Graph.summaries eff.e_graph)

let summary_of eff n =
  match SMap.find_opt (Callgraph.key n) eff.e_summ with
  | Some s -> s
  | None -> AtomSet.empty

let direct_of eff n =
  match SMap.find_opt (Callgraph.key n) eff.e_direct with
  | Some (s, _) -> s
  | None -> AtomSet.empty

let direct_loc eff n atom =
  match SMap.find_opt (Callgraph.key n) eff.e_direct with
  | Some (_, locs) -> AtomMap.find_opt atom locs
  | None -> None

(* --- chains ------------------------------------------------------------ *)

(* Shortest path (BFS) from [start] to a node carrying [atom] directly,
   moving only through nodes whose summary still contains the atom (so a
   Raises chain cannot pass a handler). *)
let chain eff (start : Callgraph.node) atom =
  let carries n =
    AtomSet.mem atom (summary_of eff n) || AtomSet.mem atom (direct_of eff n)
  in
  if not (carries start) then None
  else begin
    let parents = ref SMap.empty in
    let visited = ref (SMap.singleton (Callgraph.key start) ()) in
    let rec reconstruct n acc =
      let acc = n :: acc in
      match SMap.find_opt (Callgraph.key n) !parents with
      | Some p -> reconstruct p acc
      | None -> acc
    in
    let rec bfs frontier =
      match frontier with
      | [] -> None
      | _ -> (
        match
          List.find_opt (fun n -> AtomSet.mem atom (direct_of eff n)) frontier
        with
        | Some hit -> Some (reconstruct hit [])
        | None ->
          let next =
            List.concat_map
              (fun v ->
                List.filter_map
                  (fun ((w : Callgraph.node), _) ->
                    let wk = Callgraph.key w in
                    if SMap.mem wk !visited then None
                    else if trusted eff.e_rules w.cg_dir then None
                    else if not (carries w) then None
                    else begin
                      visited := SMap.add wk () !visited;
                      parents := SMap.add wk v !parents;
                      Some w
                    end)
                  (Callgraph.succs eff.e_cg v))
              frontier
          in
          bfs next)
    in
    bfs [ start ]
  end

let chain_text nodes = String.concat " -> " (List.map Callgraph.label nodes)

(* --- findings ---------------------------------------------------------- *)

let loc_of_line path line =
  let pos =
    { Lexing.pos_fname = path; pos_lnum = line; pos_bol = 0; pos_cnum = 0 }
  in
  { Location.loc_start = pos; loc_end = pos; loc_ghost = false }

let def_line (s : Summary.t) def =
  match List.assoc_opt def s.sum_def_lines with Some l -> Some l | None -> None

let def_display d = if String.equal d "" then "(toplevel)" else d

let module_path eff (n : Callgraph.node) =
  match Graph.find eff.e_graph ~dir:n.cg_dir ~modname:n.cg_mod with
  | Some s -> s.sum_source.Loader.s_path
  | None -> n.cg_dir ^ "/" ^ String.uncapitalize_ascii n.cg_mod ^ ".ml"

let det_rule = function
  | Wall_clock -> Some ("SA050", "wall-clock")
  | Unseeded_random -> Some ("SA051", "random")
  | Hashtbl_iter -> Some ("SA052", "hashtbl-iter")
  | Widened w -> Some ("SA053", "widened:" ^ w)
  | Global_mutation _ | Blocking _ | Raises _ | Domain_spawn -> None

let det_findings eff =
  let findings = ref [] in
  List.iter
    (fun (dir, modname) ->
      match Graph.find eff.e_graph ~dir ~modname with
      | None -> ()
      | Some rsum ->
        List.iter
          (fun d ->
            let root = { Callgraph.cg_dir = dir; cg_mod = modname; cg_def = d } in
            AtomSet.iter
              (fun a ->
                match det_rule a with
                | None -> ()
                | Some (rule_id, label) -> (
                  match chain eff root a with
                  | None -> ()
                  | Some nodes ->
                    let culprit = List.nth nodes (List.length nodes - 1) in
                    let cpath = module_path eff culprit in
                    let loc =
                      match direct_loc eff culprit a with
                      | Some l -> l
                      | None -> loc_of_line cpath 1
                    in
                    findings :=
                      Report.finding ~rule_id ~path:cpath ~loc
                        ~context:
                          (Printf.sprintf "def:%s:%s"
                             (def_display culprit.cg_def) label)
                        (Printf.sprintf
                           "%s reachable from deterministic root %s via %s"
                           (atom_label a) (Callgraph.label root)
                           (chain_text nodes))
                      :: !findings))
              (summary_of eff root))
          ("" :: rsum.sum_defs))
    eff.e_rules.ru_det_roots;
  !findings

(* Direct atoms of a pool-task body, classified the same way as a
   definition body. *)
let task_direct eff (s : Summary.t) (site : Summary.pool_site) =
  let src = s.Summary.sum_source in
  let atoms = ref AtomSet.empty in
  let locs = ref AtomMap.empty in
  let add atom loc =
    atoms := AtomSet.add atom !atoms;
    if not (AtomMap.mem atom !locs) then locs := AtomMap.add atom loc !locs
  in
  List.iter
    (fun (r : Summary.vref) ->
      (match extern_path eff.e_graph r with
      | None -> ()
      | Some p -> (
        match classify eff.e_rules p with
        | Some a when not (allowed_atom src p r a) -> add a r.r_loc
        | _ -> ()));
      match global_touch eff.e_graph s r.r_target with
      | Some g -> add (Global_mutation g) r.r_loc
      | None -> ())
    site.ps_refs;
  List.iter
    (fun (mu : Summary.mutation) ->
      match canon_mutation eff.e_graph s mu with
      | Some g -> add (Global_mutation g) mu.mu_loc
      | None -> ())
    site.ps_mutations;
  List.iter
    (fun (esc : Summary.escape) -> add (Widened esc.esc_what) esc.esc_loc)
    site.ps_escapes;
  (!atoms, !locs)

let task_callees eff (s : Summary.t) (site : Summary.pool_site) =
  List.filter_map
    (fun r -> Callgraph.target_node eff.e_graph s r)
    site.ps_refs

let task_summary eff (s : Summary.t) (site : Summary.pool_site) =
  let direct, _ = task_direct eff s site in
  let all =
    List.fold_left
      (fun acc n -> AtomSet.union acc (summary_of eff n))
      direct
      (task_callees eff s site)
  in
  if site.ps_handles then drop_raises all else all

(* How an atom enters a task: directly in the body, or through one of the
   definitions the body references. *)
let task_via eff (s : Summary.t) (site : Summary.pool_site) atom =
  let direct, locs = task_direct eff s site in
  if AtomSet.mem atom direct then
    match AtomMap.find_opt atom locs with
    | Some l ->
      Printf.sprintf "directly in the task body (line %d)"
        l.Location.loc_start.Lexing.pos_lnum
    | None -> "directly in the task body"
  else
    let rec first = function
      | [] -> "through the task body"
      | n :: rest -> (
        match chain eff n atom with
        | Some nodes -> "via " ^ chain_text nodes
        | None -> first rest)
    in
    first (task_callees eff s site)

let pool_findings eff =
  let findings = ref [] in
  List.iter
    (fun (s : Summary.t) ->
      let src = s.sum_source in
      List.iter
        (fun (site : Summary.pool_site) ->
          let atoms = task_summary eff s site in
          let flag rule_id label message =
            findings :=
              Report.finding ~rule_id ~path:src.Loader.s_path
                ~loc:site.ps_loc
                ~context:
                  (Printf.sprintf "def:%s:%s" (def_display site.ps_def)
                     label)
                message
              :: !findings
          in
          AtomSet.iter
            (fun a ->
              match a with
              | Blocking p
                when String.length p >= 5
                     && String.equal (String.sub p 0 5) "Unix." ->
                flag "SA060" p
                  (Printf.sprintf
                     "Pool.%s task in %s can block on %s (%s); a blocked \
                      worker starves the pool"
                     site.ps_fn (def_display site.ps_def) p
                     (task_via eff s site a))
              | Blocking p ->
                flag "SA061" p
                  (Printf.sprintf
                     "Pool.%s task in %s blocks on %s (%s); tasks that \
                      wait on each other can deadlock the fixed worker \
                      set"
                     site.ps_fn (def_display site.ps_def) p
                     (task_via eff s site a))
              | Domain_spawn ->
                flag "SA061" "domain-spawn"
                  (Printf.sprintf
                     "Pool.%s task in %s spawns domains (%s); nested \
                      spawn inside the fixed pool oversubscribes or \
                      deadlocks"
                     site.ps_fn (def_display site.ps_def)
                     (task_via eff s site a))
              | _ -> ())
            atoms;
          let raises =
            AtomSet.filter (function Raises _ -> true | _ -> false) atoms
          in
          if not (AtomSet.is_empty raises) then begin
            let labels =
              String.concat ", "
                (List.map atom_label (AtomSet.elements raises))
            in
            let first = AtomSet.min_elt raises in
            flag "SA062" "raises"
              (Printf.sprintf
                 "Pool.%s task in %s can raise (%s, %s) with no handler \
                  in the task body; the exception is rethrown at await \
                  and cancels sibling results"
                 site.ps_fn (def_display site.ps_def) labels
                 (task_via eff s site first))
          end)
        s.sum_pool_sites)
    (judged eff);
  !findings

let entry_findings eff =
  let findings = ref [] in
  List.iter
    (fun (s : Summary.t) ->
      let src = s.sum_source in
      if String.equal src.Loader.s_dir "bin" then begin
        let entries =
          { Callgraph.cg_dir = "bin"; cg_mod = src.Loader.s_module;
            cg_def = "" }
          :: (if List.mem_assoc "_" s.sum_def_lines then
                [ { Callgraph.cg_dir = "bin"; cg_mod = src.Loader.s_module;
                    cg_def = "_" } ]
              else [])
        in
        let raises =
          List.fold_left
            (fun acc n ->
              AtomSet.union acc
                (AtomSet.filter
                   (function Raises _ -> true | _ -> false)
                   (summary_of eff n)))
            AtomSet.empty entries
        in
        if not (AtomSet.is_empty raises) then begin
          let first = AtomSet.min_elt raises in
          let via =
            let rec go = function
              | [] -> "through the entrypoint"
              | n :: rest -> (
                match chain eff n first with
                | Some nodes -> "via " ^ chain_text nodes
                | None -> go rest)
            in
            go entries
          in
          let line =
            match def_line s "_" with
            | Some l -> l
            | None -> 1
          in
          findings :=
            Report.finding ~rule_id:"SA063" ~path:src.Loader.s_path
              ~loc:(loc_of_line src.Loader.s_path line)
              ~context:("entry:" ^ src.Loader.s_module)
              (Printf.sprintf
                 "entrypoint can die on an uncaught exception (%s) %s; wrap \
                  the dispatch in a handler that prints usage and exits"
                 (String.concat ", "
                    (List.map atom_label (AtomSet.elements raises)))
                 via)
            :: !findings
        end
      end)
    (Graph.summaries eff.e_graph);
  !findings

let annot_findings eff =
  let findings = ref [] in
  List.iter
    (fun (s : Summary.t) ->
      let src = s.sum_source in
      List.iter
        (fun (cline, text) ->
          if contains text "effects: pure" then begin
            let last = ref cline in
            String.iter (fun c -> if c = '\n' then incr last) text;
            match
              List.find_opt
                (fun (_, l) -> l >= cline && l <= !last + 1)
                s.sum_def_lines
            with
            | None -> ()
            | Some (d, line) ->
              let n =
                { Callgraph.cg_dir = src.Loader.s_dir;
                  cg_mod = src.Loader.s_module;
                  cg_def = d }
              in
              let atoms = summary_of eff n in
              if not (AtomSet.is_empty atoms) then begin
                let first = AtomSet.min_elt atoms in
                let via =
                  match chain eff n first with
                  | Some nodes -> "; first chain: " ^ chain_text nodes
                  | None -> ""
                in
                findings :=
                  Report.finding ~rule_id:"SA064" ~path:src.Loader.s_path
                    ~loc:(loc_of_line src.Loader.s_path line)
                    ~context:(Printf.sprintf "def:%s:effects-pure" d)
                    (Printf.sprintf
                       "%s is declared `effects: pure` but the inferred \
                        summary is {%s}%s"
                       d
                       (String.concat ", "
                          (List.map atom_label (AtomSet.elements atoms)))
                       via)
                  :: !findings
              end
          end)
        src.Loader.s_comments)
    (judged eff);
  !findings

let run eff =
  Report.dedup
    (det_findings eff @ pool_findings eff @ entry_findings eff
    @ annot_findings eff)

(* --- why --------------------------------------------------------------- *)

let set_text set =
  if AtomSet.is_empty set then "(pure)"
  else String.concat ", " (List.map atom_label (AtomSet.elements set))

let why eff sym =
  match Callgraph.resolve_symbol eff.e_cg sym with
  | [] -> [ Printf.sprintf "no definition matches %S" sym ]
  | nodes ->
    List.concat_map
      (fun n ->
        let head = Callgraph.label n in
        let lines =
          [
            head;
            "  direct:  " ^ set_text (direct_of eff n);
            "  summary: " ^ set_text (summary_of eff n);
          ]
        in
        lines
        @ List.filter_map
            (fun a ->
              match chain eff n a with
              | Some c when List.length c > 1 ->
                Some ("    " ^ atom_label a ^ ": " ^ chain_text c)
              | _ -> None)
            (AtomSet.elements (summary_of eff n)))
      nodes
