open Tact_store
open Tact_replica

type result = {
  violations : string list;
  fingerprint : Tact_check.Fingerprint.t;
  ops : int;
  timeouts : int;
  messages : int;
  dropped : int;
}

let client_label rid = { Tact_sim.Engine.actor = rid; tag = "client" }

let install_op sys (op : Sample.op) obs =
  Tact_sim.Engine.at (System.engine sys) ~label:(client_label op.Sample.op_rid)
    ~time:op.Sample.op_time (fun () ->
      let r = System.replica sys op.Sample.op_rid in
      let on_timeout () = obs.Oracle.o_timeouts <- obs.Oracle.o_timeouts + 1 in
      match op.Sample.op_kind with
      | Sample.Write_op { conit; nweight; oweight } ->
        Replica.submit_write ?deadline:op.Sample.op_deadline ~on_timeout r
          ~deps:[]
          ~affects:[ { Write.conit; nweight; oweight } ]
          ~op:(Op.Add (conit, nweight))
          ~k:(fun _ -> obs.Oracle.o_completions <- obs.Oracle.o_completions + 1)
      | Sample.Read_op { deps } ->
        Replica.submit_read ?deadline:op.Sample.op_deadline ~on_timeout r ~deps
          ~f:(fun db ->
            match deps with
            | (c, _) :: _ -> Db.get db c
            | [] -> Value.Nil)
          ~k:(fun _ -> obs.Oracle.o_completions <- obs.Oracle.o_completions + 1))

let observe (op : Sample.op) i =
  {
    Oracle.o_index = i;
    o_rid = op.Sample.op_rid;
    o_submit = op.Sample.op_time;
    o_deadline = op.Sample.op_deadline;
    o_read = (match op.Sample.op_kind with Sample.Read_op _ -> true | _ -> false);
    o_completions = 0;
    o_timeouts = 0;
  }

(* Post-heal catch-up allowance for the O6 envelope: a couple of retry ticks
   plus anti-entropy rounds after the quiescent tail. *)
let catchup_slack (p : Sample.plan) =
  (2.0 *. p.Sample.config.Config.retry_period)
  +. (match p.Sample.config.Config.antientropy_period with
     | Some a -> 2.0 *. a
     | None -> 0.0)
  +. 1.0

let execute ?mutation (p : Sample.plan) (schedule : Fault.schedule) =
  let sys =
    System.create ~seed:p.Sample.seed ~jitter:p.Sample.jitter ~loss:0.0
      ?mutation ~topology:p.Sample.topology ~config:p.Sample.config ()
  in
  let obs = List.mapi (fun i op -> observe op i) p.Sample.ops in
  List.iter2 (fun op o -> install_op sys op o) p.Sample.ops obs;
  Fault.install sys schedule;
  System.run ~until:(p.Sample.quiet_after +. p.Sample.drain) sys;
  let ext =
    match p.Sample.config.Config.commit_scheme with
    | Config.Stability -> true
    | Config.Primary _ -> false
  in
  let violations =
    Tact_check.Oracle.check_bounds ~lcp:false sys
    @ Tact_check.Oracle.check_committed ~prefix:true ~ext ~causal:true sys
    @ Tact_check.Oracle.check_theorem1 sys
    @ Oracle.check_liveness sys obs
    @ Oracle.check_unavailability ~schedule ~slack:(catchup_slack p) obs
  in
  let stats = System.traffic sys in
  {
    violations;
    fingerprint =
      Tact_check.Fingerprint.state sys
        ~now:(Tact_sim.Engine.now (System.engine sys))
        [||];
    ops = List.length p.Sample.ops;
    timeouts = List.fold_left (fun a o -> a + o.Oracle.o_timeouts) 0 obs;
    messages = stats.Tact_sim.Net.messages;
    dropped = stats.Tact_sim.Net.dropped;
  }
