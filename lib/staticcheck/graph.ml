type node = { n_dir : string; n_mod : string }

type edge = { e_src : node; e_dst : node; e_loc : Location.t; e_def : string }

module SMap = Map.Make (String)

type t = { g_sums : Summary.t list; g_index : Summary.t SMap.t }

let node_key dir m = dir ^ "//" ^ m

let build sums =
  let index =
    List.fold_left
      (fun acc (s : Summary.t) ->
        SMap.add
          (node_key s.sum_source.Loader.s_dir s.sum_source.Loader.s_module)
          s acc)
      SMap.empty sums
  in
  { g_sums = sums; g_index = index }

let summaries t = t.g_sums

let find t ~dir ~modname = SMap.find_opt (node_key dir modname) t.g_index

let module_edges t =
  let seen = ref SMap.empty in
  let edges = ref [] in
  List.iter
    (fun (s : Summary.t) ->
      let src =
        { n_dir = s.sum_source.Loader.s_dir;
          n_mod = s.sum_source.Loader.s_module }
      in
      List.iter
        (fun (r : Summary.vref) ->
          match r.r_target with
          | Summary.Proj { p_dir; p_mod; _ }
            when not
                   (String.equal p_dir src.n_dir
                   && String.equal p_mod src.n_mod) ->
            let dst = { n_dir = p_dir; n_mod = p_mod } in
            let k = node_key src.n_dir src.n_mod ^ "->" ^ node_key p_dir p_mod in
            if not (SMap.mem k !seen) then begin
              seen := SMap.add k () !seen;
              edges :=
                { e_src = src; e_dst = dst; e_loc = r.r_loc; e_def = r.r_def }
                :: !edges
            end
          | _ -> ())
        s.sum_refs)
    t.g_sums;
  List.sort
    (fun a b ->
      match String.compare (node_key a.e_src.n_dir a.e_src.n_mod)
              (node_key b.e_src.n_dir b.e_src.n_mod) with
      | 0 ->
        String.compare (node_key a.e_dst.n_dir a.e_dst.n_mod)
          (node_key b.e_dst.n_dir b.e_dst.n_mod)
      | c -> c)
    !edges
