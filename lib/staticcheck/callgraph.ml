(* Value-level call graph over the loaded universe.

   Nodes are (dir, module, definition) triples; an edge src -> dst exists
   when src's body references dst (the reference adjacency recorded by
   Summary).  Treating every reference as a call edge is deliberately
   conservative in the useful direction: [List.iter bump xs] makes [bump] a
   callee even though the application happens inside the stdlib, so effect
   summaries flow through higher-order code without any closure analysis.
   The cases that genuinely defeat this scheme — applying a function read
   out of a record field or a ref cell — are recorded by Summary as
   escapes and widened by the effect pass instead. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

type node = { cg_dir : string; cg_mod : string; cg_def : string }

let key n = n.cg_dir ^ "//" ^ n.cg_mod ^ "//" ^ n.cg_def

let label n =
  n.cg_dir ^ "/" ^ n.cg_mod ^ "."
  ^ (if String.equal n.cg_def "" then "(toplevel)" else n.cg_def)

let compare_node a b = String.compare (key a) (key b)

type t = {
  cg_nodes : node list;  (* sorted by key *)
  cg_succ : (node * Location.t) list SMap.t;  (* key -> sorted callees *)
}

(* The one resolver.  A reference lands in a loaded module (its own, or the
   one a [Proj] names) at a dotted path, and that path names a member either
   exactly ("State.make" for a nested module) or by its last component. *)
let resolve graph (s : Summary.t) target member =
  let landing =
    match target with
    | Summary.Self path -> Some (s, path)
    | Summary.Proj { p_dir; p_mod; p_path } when not (String.equal p_path "")
      ->
      Option.map
        (fun dst -> (dst, p_path))
        (Graph.find graph ~dir:p_dir ~modname:p_mod)
    | Summary.Proj _ | Summary.Local | Summary.Extern _ -> None
  in
  match landing with
  | None -> None
  | Some (dst, path) -> (
    let found p = Option.map (fun m -> (dst, m)) (member dst p) in
    match found path with
    | Some _ as hit -> hit
    | None -> (
      match String.rindex_opt path '.' with
      | Some i -> found (String.sub path (i + 1) (String.length path - i - 1))
      | None -> None))

let target_node graph s (r : Summary.vref) =
  Option.map
    (fun ((dst : Summary.t), d) ->
      { cg_dir = dst.sum_source.Loader.s_dir;
        cg_mod = dst.sum_source.Loader.s_module;
        cg_def = d })
    (resolve graph s r.Summary.r_target (fun dst p ->
         if List.mem p dst.Summary.sum_defs then Some p else None))

let target_global graph s target =
  resolve graph s target (fun dst p ->
      List.find_opt
        (fun (g : Summary.mutable_global) ->
          String.equal g.mg_name p && not g.mg_sync)
        dst.Summary.sum_globals)

let build graph =
  let nodes = ref SMap.empty in
  let add_node n =
    nodes := SMap.add (key n) n !nodes;
    n
  in
  let edges = ref SMap.empty in
  List.iter
    (fun (s : Summary.t) ->
      let src = s.Summary.sum_source in
      let here def =
        { cg_dir = src.Loader.s_dir;
          cg_mod = src.Loader.s_module;
          cg_def = def }
      in
      ignore (add_node (here ""));
      List.iter (fun d -> ignore (add_node (here d))) s.sum_defs;
      List.iter
        (fun (r : Summary.vref) ->
          let sn = add_node (here r.Summary.r_def) in
          match target_node graph s r with
          | None -> ()
          | Some dst ->
            let dst = add_node dst in
            let sk = key sn in
            let cur =
              match SMap.find_opt sk !edges with
              | Some m -> m
              | None -> SMap.empty
            in
            if not (SMap.mem (key dst) cur) then
              edges :=
                SMap.add sk
                  (SMap.add (key dst) (dst, r.Summary.r_loc) cur)
                  !edges)
        s.sum_refs)
    (Graph.summaries graph);
  {
    cg_nodes = List.map snd (SMap.bindings !nodes);
    cg_succ = SMap.map (fun m -> List.map snd (SMap.bindings m)) !edges;
  }

let nodes t = t.cg_nodes

let succs t n =
  match SMap.find_opt (key n) t.cg_succ with Some l -> l | None -> []

let mem t n = List.exists (fun m -> String.equal (key m) (key n)) t.cg_nodes

(* Tarjan.  Emission order is bottom-up: when an SCC is produced, every SCC
   it can reach has already been produced — exactly the order the effect
   fixpoint wants (callees before callers). *)
let sccs t =
  let counter = ref 0 in
  let idx = ref SMap.empty in
  let low = ref SMap.empty in
  let onstack = ref SSet.empty in
  let stack = ref [] in
  let out = ref [] in
  let rec strong v =
    let vk = key v in
    idx := SMap.add vk !counter !idx;
    low := SMap.add vk !counter !low;
    incr counter;
    stack := v :: !stack;
    onstack := SSet.add vk !onstack;
    List.iter
      (fun (w, _) ->
        let wk = key w in
        match SMap.find_opt wk !idx with
        | None ->
          strong w;
          let lw = SMap.find wk !low and lv = SMap.find vk !low in
          if Int.compare lw lv < 0 then low := SMap.add vk lw !low
        | Some iw ->
          if SSet.mem wk !onstack then
            let lv = SMap.find vk !low in
            if Int.compare iw lv < 0 then low := SMap.add vk iw !low)
      (succs t v);
    if Int.compare (SMap.find vk !low) (SMap.find vk !idx) = 0 then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          onstack := SSet.remove (key w) !onstack;
          if String.equal (key w) vk then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (SMap.mem (key v) !idx) then strong v) t.cg_nodes;
  List.rev !out

let resolve_symbol t sym =
  List.filter
    (fun n ->
      String.equal (label n) sym
      || String.equal (n.cg_mod ^ "." ^ n.cg_def) sym
      || String.equal n.cg_def sym)
    t.cg_nodes

let dot t =
  let b = Buffer.create 8192 in
  Buffer.add_string b "digraph callgraph {\n";
  Buffer.add_string b "  rankdir=LR;\n  node [shape=box fontsize=9];\n";
  List.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf "  \"%s\" [label=\"%s\"];\n" (key n) (label n)))
    t.cg_nodes;
  SMap.iter
    (fun sk l ->
      List.iter
        (fun (dst, _) ->
          Buffer.add_string b
            (Printf.sprintf "  \"%s\" -> \"%s\";\n" sk (key dst)))
        l)
    t.cg_succ;
  Buffer.add_string b "}\n";
  Buffer.contents b
