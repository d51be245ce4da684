open Tact_sim
open Tact_store
open Tact_replica

type spec = {
  plan : Sample.plan;
  deviations : (int * int) list;
  faults : Fault.schedule option;
  mutation : Mutation.t;
}

let spec ?faults ?(mutation = Mutation.Off) plan =
  { plan; deviations = []; faults; mutation }

(* A schedule is identified by its deviations from the default (time, seq)
   dispatch order: a sorted [(step, seq)] map saying "at step [step], fire
   the pending event with sequence number [seq] instead of the earliest one".
   Steps not named fire the default choice (index 0).  Because runs are
   deterministic, replaying the same deviations reproduces the same execution
   bit for bit — and removing a deviation leaves every earlier step
   untouched, which is what makes greedy trace minimization sound. *)

type step = {
  ready : Engine.choice array;  (* pending events at this step, (time, seq)-sorted *)
  chosen : int;  (* index fired *)
  fp : Fingerprint.t;  (* state hash before the dispatch *)
}

type result = {
  steps : step array;
  sys : System.t;
  violations : string list;
  final_fp : Fingerprint.t;
  diverged : int;  (* deviations whose seq was absent (perturbed replays) *)
  timeouts : int;
}

let find_seq choices seq =
  let found = ref None in
  Array.iteri
    (fun i (c : Engine.choice) ->
      if Option.is_none !found && c.Engine.c_seq = seq then found := Some i)
    choices;
  !found

let client_label rid = { Engine.actor = rid; tag = "client" }

(* The one op installer: every plan's ops, scheduled on the engine at their
   times under the client label, each with its completion accounting. *)
let install_op sys (op : Sample.op) (obs : Oracle.op_obs) =
  Engine.at (System.engine sys) ~label:(client_label op.Sample.op_rid)
    ~time:op.Sample.op_time (fun () ->
      let r = System.replica sys op.Sample.op_rid in
      let on_timeout () = obs.Oracle.o_timeouts <- obs.Oracle.o_timeouts + 1 in
      let k _ = obs.Oracle.o_completions <- obs.Oracle.o_completions + 1 in
      match op.Sample.op_kind with
      | Sample.Write_op { conit; nweight; oweight } ->
        Replica.submit_write ?deadline:op.Sample.op_deadline ~on_timeout r
          ~deps:[]
          ~affects:[ { Write.conit; nweight; oweight } ]
          ~op:(Op.Add (conit, nweight))
          ~k
      | Sample.Read_op { deps } ->
        Replica.submit_read ?deadline:op.Sample.op_deadline ~on_timeout r ~deps
          ~f:(fun db ->
            match deps with
            | (c, _) :: _ -> Db.get db c
            | [] -> Value.Nil)
          ~k)

let observe i (op : Sample.op) =
  {
    Oracle.o_index = i;
    o_rid = op.Sample.op_rid;
    o_submit = op.Sample.op_time;
    o_deadline = op.Sample.op_deadline;
    o_read = (match op.Sample.op_kind with Sample.Read_op _ -> true | _ -> false);
    o_completions = 0;
    o_timeouts = 0;
  }

let run ?(sanitize = false) s =
  let p = s.plan in
  let sys =
    System.create ~seed:p.Sample.seed ~jitter:p.Sample.jitter ~loss:0.0
      ~mutation:s.mutation ~topology:p.Sample.topology ~config:p.Sample.config
      ()
  in
  let engine = System.engine sys in
  let obs = List.mapi observe p.Sample.ops in
  List.iter2 (install_op sys) p.Sample.ops obs;
  Option.iter (Fault.install (Sharded.of_system sys)) s.faults;
  let steps = ref [] in
  let nsteps = ref 0 in
  let diverged = ref 0 in
  let strategy ~now choices =
    let fp = Fingerprint.state sys ~now choices in
    let idx =
      match List.assoc_opt !nsteps s.deviations with
      | None -> 0
      | Some seq -> (
        match find_seq choices seq with
        | Some i -> i
        | None ->
          (* The prefix diverged (possible only when replaying a trace whose
             deviations were edited); fall back to default order. *)
          incr diverged;
          0)
    in
    steps := { ready = choices; chosen = idx; fp } :: !steps;
    incr nsteps;
    idx
  in
  let execute () =
    match p.Sample.choice_until with
    | None -> System.run ~until:p.Sample.until sys
    | Some horizon ->
      Engine.set_scheduler engine (Some strategy);
      System.run ~until:horizon sys;
      (* Drain under plain default order (index 0 under a chooser is exactly
         (time, seq) order, and the chooser path handles the clock for
         events left over from the choice phase whose times are already in
         the past). *)
      Engine.set_scheduler engine (Some (fun ~now:_ _ -> 0));
      System.run ~until:p.Sample.until sys;
      Engine.set_scheduler engine None
  in
  if sanitize then begin
    let was = Tact_util.Sanitize.enabled () in
    Tact_util.Sanitize.set_enabled true;
    Fun.protect
      ~finally:(fun () -> if not was then Tact_util.Sanitize.clear_forced ())
      execute
  end
  else execute ();
  let violations = Oracle.run p ~faults:s.faults sys obs in
  {
    steps = Array.of_list (List.rev !steps);
    sys;
    violations;
    final_fp = Fingerprint.state sys ~now:(System.now sys) [||];
    diverged = !diverged;
    timeouts = List.fold_left (fun a o -> a + o.Oracle.o_timeouts) 0 obs;
  }
