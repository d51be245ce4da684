open Tact_core
open Tact_replica

type usage = {
  u_name : string;
  u_kind : [ `Op | `Query ];
  u_affects : (string * float * float) list;
  u_depends : (string * Bounds.t) list;
}

let of_op_class (c : 'a Spec.op_class) ~args =
  {
    u_name = Spec.class_name c;
    u_kind = `Op;
    u_affects = List.concat_map (Spec.class_affects c) args;
    u_depends = List.concat_map (Spec.class_depends c) args;
  }

let of_query (q : 'a Spec.query) ~args =
  {
    u_name = Spec.query_name q;
    u_kind = `Query;
    u_affects = [];
    u_depends = List.concat_map (Spec.query_depends q) args;
  }

let usage ~name ?(kind = `Op) ?(affects = []) ?(depends = []) () =
  { u_name = name; u_kind = kind; u_affects = affects; u_depends = depends }

(* ------------------------------------------------------------------ *)

let codes =
  [
    ("TA001", Diagnostic.Error, "conit bound negative or NaN");
    ("TA002", Diagnostic.Error, "duplicate conit declaration");
    ("TA003", Diagnostic.Error, "proportional budget weights malformed");
    ("TA004", Diagnostic.Error, "gossip plan targets out of range");
    ("TA005", Diagnostic.Warning, "relative NE bound with zero baseline");
    ("TA006", Diagnostic.Warning, "ST bound below the anti-entropy period");
    ("TA007", Diagnostic.Warning, "finite ST bound with no anti-entropy");
    ("TA008", Diagnostic.Warning, "ST bound below the network round-trip floor");
    ("TA009", Diagnostic.Warning, "zero OE bound under stability commitment");
    ("TA010", Diagnostic.Info, "unconstrained conit declaration");
    ("TA011", Diagnostic.Error, "NE bound unenforceable: share below one write's weight");
    ("TA012", Diagnostic.Warning, "OE bound below a single write's order weight");
    ("TA013", Diagnostic.Warning, "dead conit: declared but never affected");
    ("TA014", Diagnostic.Warning, "dead conit: bounded but never depended on");
    ("TA015", Diagnostic.Warning, "undeclared conit referenced by a spec");
    ("TA016", Diagnostic.Error, "invalid weight or dependency bound in a spec");
  ]

let severity_of code =
  match List.find_opt (fun (c, _, _) -> String.equal c code) codes with
  | Some (_, sev, _) -> sev
  | None -> invalid_arg ("Analyzer.severity_of: unknown code " ^ code)

let diag code ~subject ~hint fmt =
  Printf.ksprintf
    (fun message ->
      Diagnostic.make ~code ~severity:(severity_of code) ~subject ~message ~hint)
    fmt

let bad_bound x = x < 0.0 || Float.is_nan x
let finite x = x < infinity && not (Float.is_nan x)

(* The smallest per-peer share any sender may consume of a receiver's NE
   budget, under the configured allocation policy — the level at which a
   single write's nweight must fit for pushes to keep the bound without
   blocking the writer. *)
let min_share ~n (policy : Tact_protocols.Budget.policy) bound =
  if n <= 1 then infinity
  else begin
    let m = ref infinity in
    for self = 0 to n - 1 do
      for receiver = 0 to n - 1 do
        if self <> receiver then begin
          let s =
            Tact_protocols.Budget.share policy ~bound ~n ~self ~receiver
              ~rates:(Array.make n 0.0)
          in
          if s < !m then m := s
        end
      done
    done;
    !m
  end

let analyze ~n ?topology ?usages (config : Config.t) =
  let out = ref [] in
  let emit d = out := d :: !out in
  let conits = config.Config.conits in
  let declared name =
    List.exists (fun (c : Conit.t) -> String.equal c.Conit.name name) conits
  in
  (* --- declaration shape ------------------------------------------- *)
  List.iter
    (fun (c : Conit.t) ->
      if Conit.malformed c then
        emit
          (diag "TA001" ~subject:c.name
             ~hint:"bounds must be non-negative reals (infinity = unconstrained)"
             "conit %S declares a negative or NaN bound" c.name);
      if Conit.is_unconstrained c then
        emit
          (diag "TA010" ~subject:c.name
             ~hint:
               "drop the declaration or give it a bound; an undeclared conit \
                is already unconstrained"
             "conit %S is declared with every bound infinite — the declaration \
              promises nothing"
             c.name))
    conits;
  let names = List.map (fun (c : Conit.t) -> c.Conit.name) conits in
  let dups =
    List.filter
      (fun name -> List.length (List.filter (String.equal name) names) > 1)
      (List.sort_uniq String.compare names)
  in
  List.iter
    (fun name ->
      emit
        (diag "TA002" ~subject:name
           ~hint:"merge the declarations; the runtime keeps only the first"
           "conit %S is declared more than once" name))
    dups;
  (* --- budget policy ----------------------------------------------- *)
  (match config.Config.budget_policy with
  | Tact_protocols.Budget.Proportional rates as p
    when Tact_protocols.Budget.malformed ~n p ->
    emit
      (diag "TA003" ~subject:"budget_policy"
         ~hint:"supply one non-negative rate per replica with a positive total"
         "proportional budget weights are malformed for n = %d (length %d)" n
         (Array.length rates))
  | _ -> ());
  (* --- gossip plan -------------------------------------------------- *)
  (match Config.bad_gossip_plan ~n config with
  | Some (i, j) ->
    emit
      (diag "TA004" ~subject:"gossip_plan"
         ~hint:"plans must return peer ids in 0..n-1, excluding the replica itself"
         "gossip plan for replica %d targets %d (n = %d)" i j n)
  | None -> ());
  (* --- per-conit schedule checks ------------------------------------ *)
  let min_rtt =
    match topology with
    | Some (topo : Tact_sim.Topology.t) when n > 1 ->
      let m = ref infinity in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then begin
            let rtt =
              Tact_sim.Topology.latency topo i j
              +. Tact_sim.Topology.latency topo j i
            in
            if rtt < !m then m := rtt
          end
        done
      done;
      Some !m
    | Some _ | None -> None
  in
  let check_st ~subject ~source st =
    if finite st then begin
      (match config.Config.antientropy_period with
      | Some period when st < period ->
        emit
          (diag "TA006" ~subject
             ~hint:
               "lower antientropy_period below the ST bound or expect a pull \
                per access"
             "%s requires staleness <= %gs but anti-entropy only runs every \
              %gs — the bound can never be met proactively"
             source st period)
      | Some _ -> ()
      | None ->
        if n > 1 then
          emit
            (diag "TA007" ~subject
               ~hint:"set antientropy_period so covers advance in the background"
               "%s requires staleness <= %gs but no anti-entropy period is \
                configured — every access must pull on demand"
               source st));
      match min_rtt with
      | Some rtt when st < rtt && n > 1 ->
        emit
          (diag "TA008" ~subject
             ~hint:"no pull round can complete inside the bound; loosen it"
             "%s requires staleness <= %gs, below the fastest peer round-trip \
              (%gs)"
             source st rtt)
      | Some _ | None -> ()
    end
  in
  let check_oe ~subject ~source oe =
    if oe = 0.0 && n > 1 then
      match config.Config.commit_scheme with
      | Config.Stability ->
        emit
          (diag "TA009" ~subject
             ~hint:
               "stability commitment needs every origin's cover to advance — \
                one unreachable replica blocks the access; consider Primary \
                commitment"
             "%s requires zero order error under Stability commitment" source)
      | Config.Primary _ -> ()
  in
  List.iter
    (fun (c : Conit.t) ->
      if finite c.ne_rel_bound && c.initial_value = 0.0 then
        emit
          (diag "TA005" ~subject:c.name
             ~hint:
               "relative error is measured against the conit's value; give \
                initial_value the true starting value (e.g. seats on the \
                flight) or use an absolute bound"
             "conit %S declares relative NE %g with a zero baseline — the \
              per-peer budget starts at zero and every early write degenerates \
              into a sync round"
             c.name c.ne_rel_bound);
      check_st ~subject:c.name
        ~source:(Printf.sprintf "conit %S" c.name)
        c.st_bound;
      check_oe ~subject:c.name
        ~source:(Printf.sprintf "conit %S" c.name)
        c.oe_bound)
    conits;
  (* --- usage-dependent checks --------------------------------------- *)
  (match usages with
  | None -> ()
  | Some usages ->
    let max_tbl = Hashtbl.create 16 in
    let bump tbl key v =
      let cur =
        match Hashtbl.find_opt tbl key with Some x -> x | None -> 0.0
      in
      if v > cur then Hashtbl.replace tbl key v
    in
    let affected = Hashtbl.create 16 and depended = Hashtbl.create 16 in
    List.iter
      (fun u ->
        List.iter
          (fun (conit, nw, ow) ->
            if Float.is_nan nw || Float.is_nan ow || ow < 0.0 then
              emit
                (diag "TA016" ~subject:conit
                   ~hint:
                     "nweights are real deltas; oweights are non-negative \
                      order costs"
                   "%s %S declares an invalid weight on conit %S (nweight %g, \
                    oweight %g)"
                   (match u.u_kind with `Op -> "op class" | `Query -> "query")
                   u.u_name conit nw ow)
            else begin
              if nw <> 0.0 || ow <> 0.0 then Hashtbl.replace affected conit ();
              bump max_tbl ("n:" ^ conit) (Float.abs nw);
              bump max_tbl ("o:" ^ conit) ow
            end;
            if not (declared conit) then
              emit
                (diag "TA015" ~subject:conit
                   ~hint:
                     "declare the conit in Config.conits; an undeclared conit \
                      is unconstrained and maintained only reactively"
                   "%s %S affects undeclared conit %S"
                   (match u.u_kind with `Op -> "op class" | `Query -> "query")
                   u.u_name conit))
          u.u_affects;
        List.iter
          (fun (conit, (b : Bounds.t)) ->
            Hashtbl.replace depended conit ();
            if
              bad_bound b.ne || bad_bound b.ne_rel || bad_bound b.oe
              || bad_bound b.st
            then
              emit
                (diag "TA016" ~subject:conit
                   ~hint:"dependency bounds must be non-negative reals"
                   "%s %S declares a negative or NaN dependency bound on conit \
                    %S"
                   (match u.u_kind with `Op -> "op class" | `Query -> "query")
                   u.u_name conit)
            else begin
              check_st ~subject:conit
                ~source:
                  (Printf.sprintf "dependency of %S on conit %S" u.u_name conit)
                b.st;
              check_oe ~subject:conit
                ~source:
                  (Printf.sprintf "dependency of %S on conit %S" u.u_name conit)
                b.oe;
              let max_ow =
                match Hashtbl.find_opt max_tbl ("o:" ^ conit) with
                | Some v -> v
                | None -> 0.0
              in
              if finite b.oe && max_ow > b.oe then
                emit
                  (diag "TA012" ~subject:conit
                     ~hint:
                       "a single tentative write already exceeds the bound, \
                        making the access commit-synchronous; loosen the \
                        bound or shrink the write's oweight"
                     "dependency of %S bounds order error on conit %S at %g \
                      but one write carries oweight %g"
                     u.u_name conit b.oe max_ow)
            end;
            if not (declared conit) && finite b.ne then
              emit
                (diag "TA015" ~subject:conit
                   ~hint:
                     "declare the conit with an NE bound so pushes maintain \
                      it; an undeclared conit forces a pull round per access"
                   "%s %S depends on undeclared conit %S with a finite NE \
                    bound"
                   (match u.u_kind with `Op -> "op class" | `Query -> "query")
                   u.u_name conit))
          u.u_depends)
      usages;
    (* Declared-vs-used cross checks. *)
    List.iter
      (fun (c : Conit.t) ->
        let is_affected = Hashtbl.mem affected c.Conit.name in
        let is_depended = Hashtbl.mem depended c.Conit.name in
        if not is_affected then
          emit
            (diag "TA013" ~subject:c.name
               ~hint:"no op class puts weight on it; drop it or fix the specs"
               "conit %S is declared but no spec affects it — its value can \
                never move"
               c.name)
        else if (not is_depended) && not (Conit.is_unconstrained c) then
          emit
            (diag "TA014" ~subject:c.name
               ~hint:
                 "pushes will pay to maintain the bound although nothing reads \
                  under it; drop the bound or add the dependency"
               "conit %S carries a finite bound but no spec depends on it"
               c.name);
        (* NE enforceability: one write's weight must fit in the smallest
           per-peer share of the bound (Section 5.2 splits an absolute bound
           x as x/(n-1) under even allocation). *)
        if finite c.ne_bound && n > 1 then begin
          (* A malformed Proportional policy already got TA003; analyze the
             share as if even rather than indexing a bad rates array. *)
          let policy =
            let p = config.Config.budget_policy in
            if Tact_protocols.Budget.malformed ~n p then
              Tact_protocols.Budget.Even
            else p
          in
          let share = min_share ~n policy c.ne_bound in
          let max_nw =
            match Hashtbl.find_opt max_tbl ("n:" ^ c.name) with
            | Some v -> v
            | None -> 0.0
          in
          if max_nw > share then
            emit
              (diag "TA011" ~subject:c.name
                 ~hint:
                   "every such write instantly exhausts the per-peer budget \
                    and blocks for a sync round; loosen the bound, shrink the \
                    write weight, or reduce n"
                 "conit %S bounds NE at %g, a per-peer share of %g under the \
                  %s policy, but a single write carries |nweight| %g"
                 c.name c.ne_bound share
                 (Tact_protocols.Budget.policy_name config.Config.budget_policy)
                 max_nw)
        end)
      conits);
  Diagnostic.sort !out
