open Tact_sim
open Tact_util

type options = {
  depth : int;
  preemptions : int;
  window : float;
  prune : bool;
  dedup : bool;
  max_schedules : int;
}

let default_options =
  {
    depth = 20;
    preemptions = 3;
    window = 0.25;
    prune = true;
    dedup = true;
    max_schedules = 50_000;
  }

let smoke_options =
  {
    default_options with
    depth = 16;
    preemptions = 2;
    window = 0.2;
    max_schedules = 2_000;
  }

type stats = {
  schedules : int;
  deduped : int;
  pruned : int;
  max_steps : int;
  diverged : int;
  exhausted : bool;
}

type outcome = {
  stats : stats;
  counterexample : Counterexample.t option;
}

(* ------------------------------------------------------------------ *)
(* Run summaries *)

(* Everything the search needs to know about one execution, distilled from
   [Runner.result] into plain immutable data: whether it violated, how the
   default policy scheduled it (for the commute check), and the deviation
   candidates at every branchable step.  Summaries are what the parallel
   phase memoizes and ships between domains, so they must not retain the
   run's [System.t]. *)

type cand = { cd_seq : int; cd_actor : int (* -1 when unlabelled *) }

type branch = {
  br_step : int;
  br_fp : Fingerprint.t;
  br_default_seq : int; (* event the default policy dispatched here *)
  br_cands : cand list; (* window-filtered alternatives, ready order *)
}

type summary = {
  sm_violated : bool;
  sm_nsteps : int;
  sm_diverged : int;
  sm_sched : (int * int) array; (* per step: dispatched (seq, actor) *)
  sm_branches : branch list; (* branchable steps, ascending *)
}

let choice_actor (c : Engine.choice) =
  match c.Engine.c_label with Some l -> l.Engine.actor | None -> -1

(* [floor] is the first step at which this schedule may branch further —
   one past its own last deviation, so alternatives are enumerated exactly
   once across the tree; [ndeviations] caps preemptions. *)
let summarize ~options ~floor ~ndeviations (r : Runner.result) =
  let nsteps = Array.length r.Runner.steps in
  let sched =
    Array.map
      (fun (st : Runner.step) ->
        let c = st.Runner.ready.(st.Runner.chosen) in
        (c.Engine.c_seq, choice_actor c))
      r.Runner.steps
  in
  let violated = r.Runner.violations <> [] in
  let branches = ref [] in
  if (not violated) && ndeviations < options.preemptions then
    for i = Stdlib.min nsteps options.depth - 1 downto floor do
      let st = r.Runner.steps.(i) in
      let ready = st.Runner.ready in
      let t0 = ready.(0).Engine.c_time in
      let cands = ref [] in
      for j = Array.length ready - 1 downto 0 do
        let c = ready.(j) in
        if j <> st.Runner.chosen && c.Engine.c_time <= t0 +. options.window
        then cands := { cd_seq = c.Engine.c_seq; cd_actor = choice_actor c } :: !cands
      done;
      branches :=
        {
          br_step = i;
          br_fp = st.Runner.fp;
          br_default_seq = ready.(st.Runner.chosen).Engine.c_seq;
          br_cands = !cands;
        }
        :: !branches
    done;
  {
    sm_violated = violated;
    sm_nsteps = nsteps;
    sm_diverged = r.Runner.diverged;
    sm_sched = sched;
    sm_branches = !branches;
  }

(* Would deviating to this candidate just commute forward?  If the same
   event fires anyway at some later step [j] of this run, and every event
   actually dispatched in [i, j) acts on a different replica (the
   independence heuristic: distinct labelled actors — it abstracts from the
   virtual clock and shared infrastructure like traffic counters, a
   deliberate coverage trade documented in doc/CHECKING.md, switchable off
   with [prune = false]), then the deviation reorders commuting dispatches
   and reaches an already-covered state.  It can only ever skip schedules;
   violations are always judged on real executions. *)
let commutes_forward s i (cd : cand) =
  let n = Array.length s.sm_sched in
  let rec scan j =
    if j >= n then false
    else
      let seq, actor = s.sm_sched.(j) in
      if seq = cd.cd_seq then true
      else actor >= 0 && cd.cd_actor >= 0 && actor <> cd.cd_actor && scan (j + 1)
  in
  scan (i + 1)

(* ------------------------------------------------------------------ *)
(* The search proper *)

(* DFS over deviation maps, entirely driven by [get_summary] — the one
   algorithm serves both modes.  Sequentially, [get_summary] executes the
   schedule; in parallel mode it replays the parallel phase's memo table
   (executing only on a miss), which is what makes jobs:N bit-identical to
   jobs:1: the walk below — including every dedup/prune decision and the
   visit order — never depends on how summaries are produced. *)
let dfs ~options ~get_summary =
  let visited : (Fingerprint.t * int, unit) Hashtbl.t = Hashtbl.create 4096 in
  let schedules = ref 0 in
  let deduped = ref 0 in
  let pruned = ref 0 in
  let max_steps = ref 0 in
  let diverged = ref 0 in
  let violating = ref None in
  (* Each stack entry is (deviations, floor): the schedule to run, and the
     first step at which it may branch further. *)
  let stack = ref [ ([], 0) ] in
  let budget_left () =
    options.max_schedules <= 0 || !schedules < options.max_schedules
  in
  while !stack <> [] && Option.is_none !violating && budget_left () do
    match !stack with
    | [] -> ()
    | (deviations, floor) :: rest ->
      stack := rest;
      let s = get_summary ~deviations ~floor in
      incr schedules;
      if s.sm_nsteps > !max_steps then max_steps := s.sm_nsteps;
      diverged := !diverged + s.sm_diverged;
      if s.sm_violated then violating := Some deviations
      else begin
        let children = ref [] in
        List.iter
          (fun br ->
            (* The default continuation from this state is witnessed by the
               current run; record it so other paths reaching the same
               state skip it. *)
            if options.dedup then
              Hashtbl.replace visited (br.br_fp, br.br_default_seq) ();
            List.iter
              (fun cd ->
                let key = (br.br_fp, cd.cd_seq) in
                if options.dedup && Hashtbl.mem visited key then
                  incr deduped
                else if options.prune && commutes_forward s br.br_step cd
                then incr pruned
                else begin
                  if options.dedup then Hashtbl.replace visited key ();
                  children :=
                    (deviations @ [ (br.br_step, cd.cd_seq) ], br.br_step + 1)
                    :: !children
                end)
              br.br_cands)
          s.sm_branches;
        (* Push in reverse so exploration visits earliest-step deviations
           first — counterexamples then surface with short prefixes. *)
        stack := List.rev_append !children !stack
      end
  done;
  ( {
      schedules = !schedules;
      deduped = !deduped;
      pruned = !pruned;
      max_steps = !max_steps;
      diverged = !diverged;
      exhausted = !stack = [] && Option.is_none !violating;
    },
    !violating )

(* ------------------------------------------------------------------ *)
(* Parallel phase *)

(* A node's position in the DFS tree, flattened (step, candidate-rank)
   pairs: lexicographic order on these keys — with a proper prefix ordered
   first — is exactly the order the sequential walk visits nodes, which is
   what lets workers compare "who would have been explored first" without
   any sequencing. *)
let key_lt a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la then i < lb
    else if i >= lb then false
    else if a.(i) < b.(i) then true
    else if a.(i) > b.(i) then false
    else go (i + 1)
  in
  go 0

let key_le a b = not (key_lt b a)

(* Optimistically explore the schedule tree with [jobs] workers, memoizing
   a summary of every execution, keyed by its deviation map.

   The shared (fingerprint, event) table maps each continuation to the
   minimal node key that witnessed it, approximating the sequential dedup
   set: a candidate is skipped when some node the sequential walk processes
   no later than this one already recorded it.  Races — a mark arriving
   late, or a mark planted by a node the sequential walk would itself have
   deduped away — can make workers explore a superset or a subset of the
   sequential tree.  Both are harmless: extra summaries are never consulted
   by the replay, and missing ones fall back to a live execution.  The same
   holds for the violation cutoff (nodes ordered after the best known
   violation are not worth executing) and for the execution budget: they
   only bound wasted work, never correctness. *)
let parallel_phase ~options ~jobs run =
  let table : ((int * int) list, summary) Sync.Map.t =
    Sync.Map.create 4096
  in
  let seen : (Fingerprint.t * int, int array) Sync.Map.t =
    Sync.Map.create 8192
  in
  let executed = Sync.Counter.make () in
  let cutoff : int array option Sync.Cell.t = Sync.Cell.make None in
  let mark k key =
    Sync.Map.update seen k (function
      | Some k0 when key_le k0 key -> Some k0
      | _ -> Some key)
  in
  Pool.with_pool ~jobs (fun pool ->
      let rec explore_node deviations floor key () =
        let beyond_cutoff =
          match Sync.Cell.get cutoff with
          | Some k -> key_lt k key
          | None -> false
        in
        let beyond_budget () =
          options.max_schedules > 0
          && Sync.Counter.get executed >= options.max_schedules
        in
        if beyond_cutoff || beyond_budget () then ()
        else begin
          ignore (Sync.Counter.incr executed);
          let r = run deviations in
          let s =
            summarize ~options ~floor ~ndeviations:(List.length deviations) r
          in
          Sync.Map.update table deviations (fun _ -> Some s);
          if s.sm_violated then
            Sync.Cell.update cutoff (function
              | Some k when key_le k key -> Some k
              | _ -> Some key)
          else
            List.iter
              (fun br ->
                if options.dedup then mark (br.br_fp, br.br_default_seq) key;
                List.iteri
                  (fun jrank cd ->
                    let dkey = (br.br_fp, cd.cd_seq) in
                    let skip =
                      (options.dedup
                      &&
                      match Sync.Map.find_opt seen dkey with
                      | Some k0 -> key_le k0 key
                      | None -> false)
                      || (options.prune && commutes_forward s br.br_step cd)
                    in
                    if not skip then begin
                      if options.dedup then mark dkey key;
                      let ckey =
                        Array.append key [| br.br_step; jrank |]
                      in
                      Pool.post pool
                        (explore_node
                           (deviations @ [ (br.br_step, cd.cd_seq) ])
                           (br.br_step + 1) ckey)
                    end)
                  br.br_cands)
              s.sm_branches
        end
      in
      Pool.post pool (explore_node [] 0 [||]);
      Pool.await_idle pool);
  table

(* ------------------------------------------------------------------ *)

let explore ?(options = default_options) ?(jobs = 1) ?mutation
    (sc : Scenario.t) =
  let base = Runner.spec ?mutation sc.Scenario.plan in
  let run deviations = Runner.run { base with Runner.deviations } in
  let live ~deviations ~floor =
    summarize ~options ~floor ~ndeviations:(List.length deviations)
      (run deviations)
  in
  (* One domain walks the tree live.  This is not a fork of the parallel
     path: on one domain a precomputed table buys nothing, and when
     [max_schedules] binds, the table fills oldest-first (a helping caller
     takes the oldest task), so the replay would re-execute what it
     missed. *)
  let get_summary =
    if jobs <= 1 then live
    else begin
      let table = parallel_phase ~options ~jobs run in
      fun ~deviations ~floor ->
        match Sync.Map.find_opt table deviations with
        | Some s -> s
        | None -> live ~deviations ~floor
    end
  in
  let stats, violating = dfs ~options ~get_summary in
  let counterexample =
    (* Minimization always replays sequentially, so the counterexample —
       like the verdict and the statistics — is identical at any job
       count. *)
    Option.map
      (fun deviations ->
        Counterexample.of_failure (Counterexample.Scenario sc.Scenario.name)
          { base with Runner.deviations })
      violating
  in
  { stats; counterexample }
