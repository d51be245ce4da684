(* Files that do not parse (SA001), and dead exported API (SA004): a value
   exported in a .mli but referenced by no *other* module anywhere in the
   loaded universe — lib, bin, bench, test, examples and perfbench — so a
   value used only by tests or by the benchmark harness is still counted
   as live.

   Summary chases opens and aliases of project modules, so a use through
   [open Api] or [module A = Api] arrives here as an exact value reference.
   What it cannot chase — an [include], a functor argument, a first-class
   module — reaches every export without naming it, so a module that is
   the target of such a bare module reference is skipped entirely.  An
   implementation or interface that fails to parse is reported as SA001
   on its own path. *)

module SSet = Set.Make (String)

let mod_key dir m = dir ^ "//" ^ m

let at path line col =
  let p = { Lexing.pos_fname = path; pos_lnum = line; pos_bol = 0; pos_cnum = col } in
  { Location.loc_start = p; loc_end = p; loc_ghost = false }

let run graph =
  let sums = Graph.summaries graph in
  (* One sweep over every reference in the universe: exact value uses and
     bare-module uses, both keyed by target module. *)
  let used = ref SSet.empty in
  let bare = ref SSet.empty in
  List.iter
    (fun (s : Summary.t) ->
      let here = s.sum_source.Loader.s_module in
      let here_dir = s.sum_source.Loader.s_dir in
      List.iter
        (fun (r : Summary.vref) ->
          match r.Summary.r_target with
          | Summary.Proj { p_dir; p_mod; p_path }
            when not
                   (String.equal p_dir here_dir
                   && String.equal p_mod here) ->
            if String.equal p_path "" then
              bare := SSet.add (mod_key p_dir p_mod) !bare
            else
              used := SSet.add (mod_key p_dir p_mod ^ "//" ^ p_path) !used
          | _ -> ())
        s.sum_refs)
    sums;
  let findings = ref [] in
  List.iter
    (fun (s : Summary.t) ->
      let src = s.sum_source in
      Option.iter
        (fun (l, c, msg) ->
          findings :=
            Report.finding ~rule_id:"SA001" ~path:src.Loader.s_path
              ~loc:(at src.Loader.s_path l c) ~context:"syntax" msg
            :: !findings)
        src.Loader.s_error;
      match src.Loader.s_intf with
      | None -> ()
      | Some intf -> (
        let ipath = intf.Loader.i_path in
        match intf.Loader.i_error with
        | Some (l, c, msg) ->
          findings :=
            Report.finding ~rule_id:"SA001" ~path:ipath ~loc:(at ipath l c)
              ~context:"interface" ("interface does not parse: " ^ msg)
            :: !findings
        | None ->
          let mk = mod_key src.Loader.s_dir src.Loader.s_module in
          if not (SSet.mem mk !bare) then
            List.iter
              (fun (name, line) ->
                if not (SSet.mem (mk ^ "//" ^ name) !used) then
                  findings :=
                    Report.finding ~rule_id:"SA004" ~path:ipath
                      ~loc:(at ipath line 0)
                      ~context:
                        (Printf.sprintf "val:%s.%s" src.Loader.s_module name)
                      (Printf.sprintf
                         "%s.%s is exported but no other module in \
                          lib/bin/bench/test/examples/perfbench references it"
                         src.Loader.s_module name)
                    :: !findings)
              intf.Loader.i_vals))
    sums;
  Report.dedup !findings
