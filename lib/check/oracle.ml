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
   same full database image — per shard, among that shard's subscribers
   only: a replica outside a shard's interest set holds nothing of it and is
   exempt.  The containment half makes the relaxation sound: every write
   resident in a shard's logs must affect only conits routing to that
   shard, so a cross-shard leak (the planted [Wrong_shard] bug) cannot hide
   behind per-shard agreement.  A one-shard view gets the plain messages. *)
let check_converged sh =
  let issues = ref [] in
  let add s line =
    issues :=
      (if Sharded.shards sh > 1 then Printf.sprintf "shard %d: %s" s line
       else line)
      :: !issues
  in
  Sharded.iter_subs sh (fun s sys ->
      let vec i = Wlog.vector (Replica.log (System.replica sys i)) in
      for i = 1 to System.size sys - 1 do
        if not (Version_vector.equal (vec 0) (vec i)) then
          add s
            (Printf.sprintf
               "convergence: replica %d vector %s <> replica 0 vector %s" i
               (Version_vector.to_string (vec i))
               (Version_vector.to_string (vec 0)))
      done;
      if not (System.converged sys) then
        add s "convergence: database images differ across replicas");
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
  let metrics = Verify.metrics sys in
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
        (metrics a))
    (System.records sys)

(* ------------------------------------------------------------------ *)
(* O5 and O6: recovery from a fault schedule                           *)

type op_obs = {
  o_index : int;
  o_rid : int;
  o_submit : float;
  o_deadline : float option;
  o_read : bool;
  mutable o_completions : int;
  mutable o_timeouts : int;
}

let describe_op o =
  Printf.sprintf "%s #%d at replica %d (submit %g%s)"
    (if o.o_read then "read" else "write")
    o.o_index o.o_rid o.o_submit
    (match o.o_deadline with
    | Some d -> Printf.sprintf ", deadline %g" d
    | None -> "")

(* O5 (liveness): after the quiescent tail plus drain, the system has fully
   recovered — every replica instance is up with nothing parked (a replica
   serving several shards must recover all of them), the interest-set O3
   holds, and every client heard back exactly once: zero completions is a
   stuck access, more than one is a replayed one. *)
let check_liveness sh obs =
  let issues = ref [] in
  Sharded.iter_subs sh (fun s sys ->
      let members = Sharded.members sh s in
      let where =
        if Sharded.shards sh > 1 then Printf.sprintf " in shard %d" s else ""
      in
      for li = 0 to System.size sys - 1 do
        let r = System.replica sys li in
        if not (Replica.is_up r) then
          issues :=
            Printf.sprintf "liveness: replica %d still down%s after heal"
              members.(li) where
            :: !issues;
        let parked = Replica.pending_count r in
        if parked > 0 then
          issues :=
            Printf.sprintf
              "liveness: replica %d still has %d parked accesses%s after heal"
              members.(li) parked where
            :: !issues
      done);
  let convergence =
    List.map (fun v -> "liveness: " ^ v) (check_converged sh)
  in
  let completions =
    List.filter_map
      (fun o ->
        let total = o.o_completions + o.o_timeouts in
        if total = 1 then None
        else if total = 0 then
          Some
            (Printf.sprintf "liveness: %s never completed nor timed out"
               (describe_op o))
        else
          Some
            (Printf.sprintf
               "liveness: %s completed %d times (%d results, %d timeouts) — \
                expected exactly one"
               (describe_op o) total o.o_completions o.o_timeouts))
      obs
  in
  List.rev !issues @ convergence @ completions

(* O6 (bound violations with unavailability accounting): a bounded access
   that times out trades consistency for availability — legitimate exactly
   when a fault could have parked it.  A timeout is excused only by a
   disturbance that could reach the timed-out replica: one whose footprint
   ({!Fault.disturbance_scope}) meets the replicas sharing a shard with it
   (its sync peers), or a global knob, within the envelope
   [first such event, quiet_after + slack] ([slack] covers post-heal
   catch-up: retries, pulls, round trips).  A timeout whose parked window
   [submit, deadline] misses it had no fault to blame: the deadline
   generosity of the sampled workloads (Sample) means the bounds machinery
   itself failed to serve in time.  Served accesses are never excused — O1
   checks them unconditionally. *)
let check_unavailability sh ~(schedule : Fault.schedule) ~slack obs =
  let n = Sharded.size sh in
  (* peers.(r).(x): do r and x share a shard? *)
  let peers = Array.init n (fun _ -> Array.make n false) in
  Sharded.iter_subs sh (fun s _ ->
      let members = Sharded.members sh s in
      Array.iter
        (fun a -> Array.iter (fun b -> peers.(a).(b) <- true) members)
        members);
  let relevant rid (e : Fault.event) =
    match Fault.disturbance_scope e.Fault.action with
    | None -> false
    | Some [] -> true
    | Some rs -> List.exists (fun x -> x >= 0 && x < n && peers.(rid).(x)) rs
  in
  let fault_hi = schedule.Fault.quiet_after +. slack in
  List.filter_map
    (fun o ->
      if o.o_timeouts = 0 then None
      else
        let fault_lo =
          List.fold_left
            (fun acc (e : Fault.event) ->
              if relevant o.o_rid e then Float.min acc e.Fault.at else acc)
            infinity schedule.Fault.events
        in
        let deadline =
          match o.o_deadline with Some d -> d | None -> infinity
        in
        let overlaps = fault_lo <= deadline && o.o_submit <= fault_hi in
        if overlaps then None
        else
          Some
            (Printf.sprintf
               "unavailability: %s timed out with no fault reaching its \
                interest set (relevant faults span [%g, %g])"
               (describe_op o) fault_lo fault_hi))
    obs

(* Post-heal catch-up allowance for the O6 envelope: a couple of retry ticks
   plus anti-entropy rounds after the quiescent tail. *)
let catchup_slack (cfg : Config.t) =
  (2.0 *. cfg.Config.retry_period)
  +. (match cfg.Config.antientropy_period with
     | Some a -> 2.0 *. a
     | None -> 0.0)
  +. 1.0

let run (p : Sample.plan) ~faults sys obs =
  let c = p.Sample.checks in
  let bounds =
    if c.Sample.bounds then check_bounds ~lcp:c.Sample.lcp sys else []
  in
  let committed =
    if c.Sample.committed_prefix || c.Sample.ext_compat
       || c.Sample.causal_compat
    then
      check_committed ~prefix:c.Sample.committed_prefix
        ~ext:c.Sample.ext_compat ~causal:c.Sample.causal_compat sys
    else []
  in
  let converged =
    if c.Sample.converged then check_converged (Sharded.of_system sys) else []
  in
  let theorem1 = if c.Sample.theorem1 then check_theorem1 sys else [] in
  let recovery =
    match faults with
    | None -> []
    | Some schedule ->
      let sh = Sharded.of_system sys in
      check_liveness sh obs
      @ check_unavailability sh ~schedule
          ~slack:(catchup_slack p.Sample.config) obs
  in
  bounds @ committed @ converged @ theorem1 @ recovery
