let lib_dir dir =
  String.length dir >= 4 && String.equal (String.sub dir 0 4) "lib/"

let def_display d = if String.equal d "" then "(toplevel)" else d

(* A global of the site's own module is keyed by its bare name, any other by
   [Mod.g] — the form the effect atom already carries. *)
let global_label (s : Summary.t) g =
  let own = s.sum_source.Loader.s_module ^ "." in
  let n = String.length own in
  if String.length g > n && String.equal (String.sub g 0 n) own then
    String.sub g n (String.length g - n)
  else g

let site_findings eff (s : Summary.t) (site : Summary.pool_site) =
  let path = s.sum_source.Loader.s_path in
  let captured =
    List.filter_map
      (fun (m : Summary.mutation) ->
        match m.mu_target with
        | Summary.Local when m.mu_captured ->
          Some
            (Report.finding ~rule_id:"SA021" ~path ~loc:m.mu_loc
               ~context:(Printf.sprintf "def:%s:%s" site.ps_def m.mu_name)
               (Printf.sprintf
                  "Pool.%s task captures %s and mutates it with %s; every \
                   worker shares the closure, so this races"
                  site.ps_fn m.mu_name m.mu_op))
        | _ -> None)
      site.ps_mutations
  in
  (* Every non-Sync global the task touches, in its body or through
     anything it calls, is one atom of the task's effect summary. *)
  let reached =
    List.filter_map
      (fun atom ->
        match atom with
        | Effects.Global_mutation g ->
          let g = global_label s g in
          Some
            (Report.finding ~rule_id:"SA020" ~path ~loc:site.ps_loc
               ~context:(Printf.sprintf "def:%s:%s" site.ps_def g)
               (Printf.sprintf
                  "Pool.%s task in %s reaches mutable %s (%s); route it \
                   through Sync or confine it to the task"
                  site.ps_fn (def_display site.ps_def) g
                  (Effects.task_via eff s site atom)))
        | _ -> None)
      (Effects.AtomSet.elements (Effects.task_summary eff s site))
  in
  captured @ reached

let run eff =
  Report.dedup
    (List.concat_map
       (fun (s : Summary.t) ->
         (* SA030: module-level mutable state as such, lib/ only. *)
         let state =
           if not (lib_dir s.sum_source.Loader.s_dir) then []
           else
             List.filter_map
               (fun (g : Summary.mutable_global) ->
                 if g.mg_sync then None
                 else
                   Some
                     (Report.finding ~rule_id:"SA030"
                        ~path:s.sum_source.Loader.s_path ~loc:g.mg_loc
                        ~context:("def:" ^ g.mg_name)
                        (Printf.sprintf
                           "module-level mutable state (%s %s) couples \
                            callers through hidden shared memory; prefer \
                            explicit state or a Sync wrapper"
                           g.mg_creator g.mg_name)))
               s.sum_globals
         in
         state @ List.concat_map (site_findings eff s) s.sum_pool_sites)
       (Effects.judged eff))
