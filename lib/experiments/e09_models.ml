open Tact_util
open Tact_sim
open Tact_store
open Tact_core
open Tact_replica
open Tact_models

type row = { model : string; scenario : string; property : string; holds : bool }

let topo n = Topology.uniform ~n ~latency:0.04 ~bandwidth:1_000_000.0

(* --- N-ignorant ----------------------------------------------------- *)

let n_ignorant_row ~nbound ~duration =
  let n = 4 in
  let config =
    {
      Config.default with
      Config.conits = N_ignorant.conits ~n_bound:nbound;
      antientropy_period = None;
    }
  in
  let sys = System.create ~seed:41 ~topology:(topo n) ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:43 in
  let sessions = Array.init n (fun i -> Session.create (System.replica sys i)) in
  for i = 0 to n - 1 do
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:2.0 ~until:duration
      (fun () -> N_ignorant.transaction sessions.(i) ~op:(Op.Add ("t", 1.0)) ~k:ignore)
  done;
  (* Sample ignorance of each replica over the run; returned transactions are
     what the invariant covers, so sample against returned counts. *)
  let returned = ref 0 in
  let max_ign = ref 0.0 in
  (* Count returns through a patched workload is intrusive; instead sample
     the accepted-unseen gap and subtract the in-flight allowance observed. *)
  Engine.every engine ~period:0.25 (fun () ->
      ignore !returned;
      for i = 0 to n - 1 do
        let local =
          Wlog.conit_value (Replica.log (System.replica sys i)) N_ignorant.conit_name
        in
        let global = float_of_int (System.write_count sys) in
        if global -. local > !max_ign then max_ign := global -. local
      done;
      Engine.now engine < duration);
  System.run ~until:(duration +. 60.0) sys;
  let slack = 4.0 (* one in-flight unreturned write per replica *) in
  {
    model = "N-ignorant";
    scenario = Printf.sprintf "N=%g, max observed ignorance %.0f" nbound !max_ign;
    property = "ignorance <= N (+ in-flight slack)";
    holds = !max_ign <= nbound +. slack;
  }

(* --- Conflict matrix -------------------------------------------------- *)

let account_procs =
  [
    ( "deposit",
      fun arg db -> Op.Applied (Db.add db "balance" (Value.to_float arg)) );
    ( "withdraw",
      fun arg db ->
        let amount = Value.to_float arg in
        if Db.get_float db "balance" >= amount then
          Op.Applied (Db.add db "balance" (-.amount))
        else Op.Conflict "insufficient funds" );
  ]

let account_deposit amount = Op.Named ("deposit", Value.Float amount)
let account_withdraw amount = Op.Named ("withdraw", Value.Float amount)

let conflict_matrix_run ~with_matrix ~duration =
  (* methods: 0 = deposit, 1 = withdraw; withdraw conflicts with both. *)
  let matrix = [| [| false; true |]; [| true; true |] |] in
  Conflict_matrix.check matrix;
  let n = 3 in
  let config =
    {
      Config.default with
      Config.conits = Conflict_matrix.conits matrix;
      antientropy_period = Some 0.5;
      initial_db = [ ("balance", Value.Float 200.0) ];
      procs = account_procs;
    }
  in
  let sys = System.create ~seed:47 ~topology:(topo n) ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:53 in
  let outcomes = ref [] in
  for i = 0 to n - 1 do
    let session = Session.create (System.replica sys i) in
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.0 ~until:duration
      (fun () ->
        let m = if Prng.bool prng then 0 else 1 in
        let op = if m = 0 then account_deposit 10.0 else account_withdraw 25.0 in
        let k tentative =
          outcomes := (m, tentative) :: !outcomes
        in
        if with_matrix then Conflict_matrix.invoke session ~matrix ~method_:m ~op ~k
        else
          Replica.submit_write (System.replica sys i) ~deps:[]
            ~affects:(Conflict_matrix.affects_of_method matrix m)
            ~op ~k)
  done;
  System.run ~until:(duration +. 60.0) sys;
  (* Surprise aborts: tentative outcome disagreed with the committed one. *)
  let log0 = Replica.log (System.replica sys 0) in
  let surprises = ref 0 and total = ref 0 in
  List.iter
    (fun (a : Access.t) ->
      match a.kind with
      | Access.Write_access id -> (
        incr total;
        match Wlog.final_outcome log0 id with
        | Some final ->
          (* Account ops return the balance on success and Nil on conflict,
             so a value mismatch captures both kinds of surprise. *)
          if not (Value.equal (Op.result final) a.observed_result) then
            incr surprises
        | None -> incr surprises)
      | Access.Read -> ())
    (System.records sys);
  (!surprises, !total, List.length (Verify.check sys))

let conflict_matrix_rows ~duration =
  let s_with, t_with, viol = conflict_matrix_run ~with_matrix:true ~duration in
  let s_without, t_without, _ = conflict_matrix_run ~with_matrix:false ~duration in
  [
    {
      model = "conflict matrix";
      scenario =
        Printf.sprintf "bank account, %d invocations, matrix deps on" t_with;
      property = "no surprise aborts, no violations";
      holds = s_with = 0 && viol = 0;
    };
    {
      model = "conflict matrix";
      scenario =
        Printf.sprintf "same workload, deps off: %d/%d surprises" s_without t_without;
      property = "baseline shows anomalies (sanity)";
      holds = s_without > 0;
    };
  ]

(* --- Lazy replication -------------------------------------------------- *)

let lazy_replication_rows ~duration =
  let n = 3 in
  let config =
    {
      Config.default with
      Config.conits = Lazy_replication.conits;
      antientropy_period = Some 0.5;
    }
  in
  let sys = System.create ~seed:59 ~topology:(topo n) ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:61 in
  let forced_anoms = ref 0 and forced_total = ref 0 in
  for i = 0 to n - 1 do
    let session = Session.create (System.replica sys i) in
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.0 ~until:duration
      (fun () ->
        if Prng.bool prng then
          Lazy_replication.forced session ~op:(Op.Add ("seq", 1.0)) ~k:ignore
        else Lazy_replication.causal session ~op:(Op.Add ("notes", 1.0)) ~k:ignore)
  done;
  System.run ~until:(duration +. 60.0) sys;
  let log0 = Replica.log (System.replica sys 0) in
  List.iter
    (fun (a : Access.t) ->
      match a.kind with
      | Access.Write_access id when Access.depends_on a Lazy_replication.forced_conit
        -> (
        incr forced_total;
        match Wlog.final_outcome log0 id with
        | Some final ->
          if not (Value.equal (Op.result final) a.observed_result) then
            incr forced_anoms
        | None -> incr forced_anoms)
      | Access.Write_access _ | Access.Read -> ())
    (System.records sys);
  (* Forced order must be identical at every replica. *)
  let forced_order r =
    List.filter_map
      (fun (w : Write.t) ->
        if Write.affects_conit w Lazy_replication.forced_conit then Some w.id
        else None)
      (Wlog.committed (Replica.log (System.replica sys r)))
  in
  let same_order =
    List.for_all (fun r -> forced_order r = forced_order 0) [ 1; 2 ]
  in
  [
    {
      model = "lazy replication";
      scenario = Printf.sprintf "%d forced txns across 3 replicas" !forced_total;
      property = "forced: same total order everywhere, observed = actual";
      holds = same_order && !forced_anoms = 0;
    };
  ]

(* --- Cluster consistency ------------------------------------------------ *)

let cluster_rows ~duration =
  let n = 4 in
  let clusters = 2 in
  let config =
    {
      Config.default with
      Config.conits = Cluster.conits ~clusters;
      antientropy_period = Some 0.5;
    }
  in
  let sys = System.create ~seed:67 ~topology:(topo n) ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:71 in
  let strict_anoms = ref 0 and strict_total = ref 0 in
  for i = 0 to n - 1 do
    let session = Session.create (System.replica sys i) in
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.0 ~until:duration
      (fun () ->
        let cl = i mod clusters in
        if Prng.bool prng then
          Cluster.strict_op session ~cluster:cl
            ~op:(Op.Add (Printf.sprintf "cl%d" cl, 1.0))
            ~k:ignore
        else
          Cluster.weak_op session ~cluster:cl
            ~op:(Op.Add (Printf.sprintf "cl%d.weak" cl, 1.0))
            ~k:ignore)
  done;
  System.run ~until:(duration +. 60.0) sys;
  let log0 = Replica.log (System.replica sys 0) in
  List.iter
    (fun (a : Access.t) ->
      match a.kind with
      | Access.Write_access id when a.deps <> [] -> (
        incr strict_total;
        match Wlog.final_outcome log0 id with
        | Some final ->
          if not (Value.equal (Op.result final) a.observed_result) then
            incr strict_anoms
        | None -> incr strict_anoms)
      | Access.Write_access _ | Access.Read -> ())
    (System.records sys);
  [
    {
      model = "cluster consistency";
      scenario = Printf.sprintf "%d strict ops over 2 clusters" !strict_total;
      property = "strict ops observed = actual; weak ops unconstrained";
      holds = !strict_anoms = 0 && List.length (Verify.check sys) = 0;
    };
  ]

(* --- Timed / delta ------------------------------------------------------ *)

let timed_rows ~duration =
  let n = 3 in
  let config = { Config.default with Config.antientropy_period = Some 2.0 } in
  let sys = System.create ~seed:73 ~topology:(topo n) ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:79 in
  for i = 0 to n - 1 do
    let session = Session.create (System.replica sys i) in
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.0 ~until:duration
      (fun () ->
        if Prng.bool prng then Timed.write session ~op:(Op.Add ("x", 1.0)) ~k:ignore
        else
          Timed.read session ~delta:0.5 ~f:(fun db -> Db.get db "x") ~k:ignore)
  done;
  System.run ~until:(duration +. 60.0) sys;
  [
    {
      model = "timed/delta";
      scenario = "delta = 0.5 s reads against 2 s gossip";
      property = "no read misses a write older than delta";
      holds = Verify.check sys = [];
    };
  ]

(* --- Quasi-copy --------------------------------------------------------- *)

let quasi_copy_rows ~duration =
  let n = 3 in
  let config = { Config.default with Config.antientropy_period = Some 1.0 } in
  let sys = System.create ~seed:83 ~topology:(topo n) ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:89 in
  for i = 0 to n - 1 do
    let session = Session.create (System.replica sys i) in
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.0 ~until:duration
      (fun () ->
        match Prng.int prng 4 with
        | 0 ->
          Quasi_copy.write_numeric session ~key:"quote"
            ~delta:(Prng.uniform_in prng ~lo:(-2.0) ~hi:2.0)
            ~k:ignore
        | 1 -> Quasi_copy.read_version session ~key:"quote" ~versions:3.0 ~k:ignore
        | 2 -> Quasi_copy.read_arithmetic session ~key:"quote" ~epsilon:5.0 ~k:ignore
        | _ -> Quasi_copy.read_delay session ~key:"quote" ~alpha:2.0 ~k:ignore)
  done;
  System.run ~until:(duration +. 60.0) sys;
  [
    {
      model = "quasi-copy";
      scenario = "version<=3, arithmetic<=5, delay<=2s conditions mixed";
      property = "all coherency conditions hold";
      holds = Verify.check sys = [];
    };
  ]

(* --- Memory-model DAG ---------------------------------------------------- *)

let memdag_rows () =
  let dag = { Memdag.nodes = 4; edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ] } in
  Memdag.check dag;
  let n = 3 in
  (* Each node's write bumps the trace counter and records its value. *)
  let node_proc arg db =
    ignore (Db.add db "trace" 1.0);
    Db.set db
      (Printf.sprintf "node%d" (Value.to_int arg))
      (Value.Float (Db.get_float db "trace"));
    Op.Applied Value.Nil
  in
  let config =
    {
      Config.default with
      Config.antientropy_period = Some 0.2;
      procs = [ ("node", node_proc) ];
    }
  in
  let sys = System.create ~seed:97 ~topology:(topo n) ~config () in
  let engine = System.engine sys in
  let order = ref [] in
  let submit_node ~at ~replica ~node ~k =
    Engine.schedule engine ~delay:at (fun () ->
        let session = Session.create (System.replica sys replica) in
        Memdag.submit session ~dag ~node
          ~op:(Op.Named ("node", Value.Int node))
          ~k:(fun _ ->
            order := node :: !order;
            k ()))
  in
  (* The diamond: node 0 at replica 0; 1 and 2 concurrently elsewhere; 3 back
     at replica 0, submitted only after its program-order predecessors
     returned (as a processor would). *)
  submit_node ~at:0.1 ~replica:0 ~node:0 ~k:(fun () ->
      submit_node ~at:0.05 ~replica:1 ~node:1 ~k:(fun () -> ());
      submit_node ~at:0.05 ~replica:2 ~node:2 ~k:(fun () -> ()));
  Engine.schedule engine ~delay:5.0 (fun () ->
      let session = Session.create (System.replica sys 0) in
      Memdag.submit session ~dag ~node:3 ~op:Op.Noop ~k:(fun _ ->
          order := 3 :: !order));
  System.run ~until:60.0 sys;
  let accept_order = List.rev !order in
  [
    {
      model = "memory-model DAG";
      scenario = "diamond DAG across 3 replicas";
      property = "return order topologically sorts the DAG";
      holds =
        List.length accept_order = 4
        && Memdag.execution_respects_dag dag ~accept_order
        && Verify.check sys = [];
    };
  ]

let rows ?(quick = false) () =
  let duration = if quick then 10.0 else 30.0 in
  [ n_ignorant_row ~nbound:1.0 ~duration; n_ignorant_row ~nbound:8.0 ~duration ]
  @ conflict_matrix_rows ~duration
  @ lazy_replication_rows ~duration
  @ cluster_rows ~duration
  @ timed_rows ~duration
  @ quasi_copy_rows ~duration
  @ memdag_rows ()

let run ?(quick = false) () =
  let tbl =
    Table.create
      ~title:"E9 / Section 4.2 — prior consistency models as conit instances"
      ~columns:[ "model"; "scenario"; "property"; "holds" ]
  in
  List.iter
    (fun r -> Table.add_row tbl [ r.model; r.scenario; r.property; string_of_bool r.holds ])
    (rows ~quick ());
  Table.render tbl ^ "expected: every 'holds' column reads true.\n"
