open Tact_store
open Tact_replica

let eps = 1e-9

let describe_access (a : Tact_core.Access.t) =
  let kind =
    match a.Tact_core.Access.kind with
    | Tact_core.Access.Read -> "read"
    | Tact_core.Access.Write_access id -> "write " ^ Write.id_to_string id
  in
  Printf.sprintf "%s at replica %d (submit %g, serve %g)" kind
    a.Tact_core.Access.replica a.Tact_core.Access.submit_time
    a.Tact_core.Access.serve_time

(* O1: every served access within its requested per-conit bounds, recomputed
   omnisciently against the ECG reference history. *)
let check_bounds ~lcp sys =
  List.map
    (fun (v : Verify.violation) ->
      Printf.sprintf "bounds: %s violated %s <= %g on conit %s (ne=%g oe=%g st=%g)"
        (describe_access v.Verify.access) v.Verify.dimension v.Verify.bound
        v.Verify.metrics.Verify.conit v.Verify.metrics.Verify.ne
        v.Verify.metrics.Verify.oe_tentative v.Verify.metrics.Verify.st)
    (Verify.check ~lcp ~eps sys)

(* O2: all replicas agree on the committed prefix (1SR), and the longest
   committed order is compatible with external and/or causal order. *)
let check_committed ~prefix ~ext ~causal sys =
  let n = System.size sys in
  let committed i = Wlog.committed (Replica.log (System.replica sys i)) in
  let issues = ref [] in
  if prefix then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let ci = committed i and cj = committed j in
        let s, l, si, li =
          if List.length ci <= List.length cj then (ci, cj, i, j) else (cj, ci, j, i)
        in
        if not (Tact_core.Ecg.is_prefix s l) then
          issues :=
            Printf.sprintf
              "committed-prefix: replica %d's committed order (%d writes) is \
               not a prefix of replica %d's (%d writes)"
              si (List.length s) li (List.length l)
            :: !issues
      done
    done;
  let longest =
    let best = ref [] in
    for i = 0 to n - 1 do
      let c = committed i in
      if List.length c > List.length !best then best := c
    done;
    !best
  in
  if ext && not (Tact_core.Ecg.externally_compatible ~order:longest
                   ~return_time:(System.return_time sys))
  then
    issues := "committed-order: not compatible with external order" :: !issues;
  if causal
     && not (Tact_core.Ecg.causally_compatible ~order:longest
               ~accept_vector:(System.accept_vector sys))
  then
    issues := "committed-order: not compatible with causal order" :: !issues;
  List.rev !issues

(* O3: after quiescence every replica holds the same version vector and the
   same full database image. *)
let check_converged sys =
  let n = System.size sys in
  let vec i = Wlog.vector (Replica.log (System.replica sys i)) in
  let issues = ref [] in
  for i = 1 to n - 1 do
    if not (Version_vector.equal (vec 0) (vec i)) then
      issues :=
        Printf.sprintf "convergence: replica %d vector %s <> replica 0 vector %s"
          i (Version_vector.to_string (vec i)) (Version_vector.to_string (vec 0))
        :: !issues
  done;
  if not (System.converged sys) then
    issues := "convergence: database images differ across replicas" :: !issues;
  List.rev !issues

(* O3, interest-set-aware: convergence is per shard, among that shard's
   subscribers only — a replica outside a shard's interest set holds nothing
   of it and is exempt.  The containment half makes the relaxation sound:
   every write resident in a shard's logs must affect only conits routing to
   that shard, so a cross-shard leak (the planted [Wrong_shard] bug)
   cannot hide behind per-shard agreement. *)
let check_converged_sharded sh =
  let issues = ref [] in
  Sharded.iter_subs sh (fun s sys ->
      List.iter
        (fun line -> issues := Printf.sprintf "shard %d: %s" s line :: !issues)
        (List.rev (check_converged sys)));
  List.iter
    (fun (s, r, id, conit) ->
      issues :=
        Printf.sprintf
          "shard-leak: write %s at replica %d affects conit %s of shard %d \
           but sits in shard %d's log"
          (Write.id_to_string id) r conit
          (Tact_store.Shard.route (Sharded.router sh) conit)
          s
        :: !issues)
    (Sharded.shard_leaks sh);
  List.rev !issues

(* O4 (Theorem 1): independent of what any access requested, the NE actually
   experienced never exceeds the conit's declared system-wide bound — the
   bound the push protocol self-determines via per-writer budget shares.
   Sound for absolute-NE conits under the Even policy (each writer's
   outstanding unacked weight fits every peer's share, and shares sum to at
   most the bound); relative-NE shares are estimated locally, so scenarios
   keep [theorem1] off when they use them. *)
let check_theorem1 sys =
  let cfg = System.config sys in
  List.concat_map
    (fun (a : Tact_core.Access.t) ->
      List.filter_map
        (fun (m : Verify.computed) ->
          let declared = Config.conit cfg m.Verify.conit in
          let bound = declared.Tact_core.Conit.ne_bound in
          if bound < infinity && m.Verify.ne > bound +. eps then
            Some
              (Printf.sprintf
                 "theorem1: %s saw ne=%g on conit %s, above the declared \
                  system-wide bound %g"
                 (describe_access a) m.Verify.ne m.Verify.conit bound)
          else None)
        (Verify.access_metrics sys a))
    (System.records sys)

let run (sc : Scenario.t) sys =
  let c = sc.Scenario.checks in
  let bounds =
    if c.Scenario.bounds then check_bounds ~lcp:c.Scenario.lcp sys else []
  in
  let committed =
    if c.Scenario.committed_prefix || c.Scenario.ext_compat
       || c.Scenario.causal_compat
    then
      check_committed ~prefix:c.Scenario.committed_prefix
        ~ext:c.Scenario.ext_compat ~causal:c.Scenario.causal_compat sys
    else []
  in
  let converged = if c.Scenario.converged then check_converged sys else [] in
  let theorem1 = if c.Scenario.theorem1 then check_theorem1 sys else [] in
  bounds @ committed @ converged @ theorem1
