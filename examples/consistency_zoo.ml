(* The consistency zoo (Section 4.2): eight prior relaxed-consistency models,
   each expressed as a conit instance and shown doing its characteristic
   thing on live replicas.

   Run with: dune exec examples/consistency_zoo.exe *)

open Tact_sim
open Tact_store
open Tact_replica
open Tact_models

let topo n = Topology.uniform ~n ~latency:0.04 ~bandwidth:1_000_000.0

let banner name = Printf.printf "\n--- %s ---\n" name

(* 1. N-ignorant transactions. *)
let n_ignorant () =
  banner "N-ignorant system (N = 2)";
  let config =
    { Config.default with Config.conits = N_ignorant.conits ~n_bound:2.0 }
  in
  let sys = System.create ~topology:(topo 3) ~config () in
  let engine = System.engine sys in
  let sessions = Array.init 3 (fun i -> Session.create (System.replica sys i)) in
  Tact_workload.Workload.staggered engine ~start:0.1 ~gap:0.3 ~count:12 (fun k ->
      N_ignorant.transaction sessions.(k mod 3) ~op:(Op.Add ("t", 1.0)) ~k:ignore);
  let worst = ref 0.0 in
  Engine.every engine ~period:0.2 (fun () ->
      for i = 0 to 2 do
        worst := Float.max !worst (N_ignorant.ignorance sys ~replica:i)
      done;
      Engine.now engine < 5.0);
  System.run ~until:30.0 sys;
  Printf.printf "12 transactions; worst observed ignorance %.0f (bound 2 + in-flight)\n" !worst

(* 2. Conflict-matrix bank account. *)
let conflict_matrix () =
  banner "conflict matrix (withdrawals behave 1SR)";
  let matrix = [| [| false; true |]; [| true; true |] |] in
  let config =
    {
      Config.default with
      Config.conits = Conflict_matrix.conits matrix;
      antientropy_period = Some 0.3;
      initial_db = [ ("balance", Value.Float 100.0) ];
      procs =
        [
          ( "withdraw",
            fun _ db ->
              if Db.get_float db "balance" >= 60.0 then
                Op.Applied (Db.add db "balance" (-60.0))
              else Op.Conflict "insufficient funds" );
        ];
    }
  in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  let withdraw = Op.Named ("withdraw", Value.Nil) in
  (* Two replicas race to withdraw 60 from a balance of 100. *)
  for i = 0 to 1 do
    let s = Session.create (System.replica sys i) in
    Engine.schedule engine ~delay:0.1 (fun () ->
        Conflict_matrix.invoke s ~matrix ~method_:1 ~op:withdraw ~k:(fun o ->
            Printf.printf "  replica %d withdraw: %s\n" i
              (match o with
              | Op.Applied v -> Printf.sprintf "ok, balance %s" (Value.to_string v)
              | Op.Conflict r -> r)))
  done;
  System.run ~until:60.0 sys;
  Printf.printf "final committed balance: %g (never negative)\n"
    (Db.get_float (Wlog.committed_db (Replica.log (System.replica sys 0))) "balance")

(* 3. Lazy replication's forced transactions. *)
let lazy_replication () =
  banner "lazy replication (forced txns, identical order everywhere)";
  let config =
    {
      Config.default with
      Config.conits = Lazy_replication.conits;
      antientropy_period = Some 0.3;
    }
  in
  let sys = System.create ~topology:(topo 3) ~config () in
  let engine = System.engine sys in
  for i = 0 to 2 do
    let s = Session.create (System.replica sys i) in
    Engine.schedule engine ~delay:(0.1 +. (0.05 *. float_of_int i)) (fun () ->
        Lazy_replication.forced s ~op:(Op.Append ("seq", Value.Int i)) ~k:ignore)
  done;
  System.run ~until:60.0 sys;
  let order r =
    Value.to_string (Db.get (Wlog.committed_db (Replica.log (System.replica sys r))) "seq")
  in
  Printf.printf "committed order at replicas 0/1/2: %s | %s | %s\n" (order 0) (order 1) (order 2)

(* 4. Timed / delta consistency. *)
let timed () =
  banner "delta consistency (no read older than 0.5s)";
  let sys = System.create ~topology:(topo 2) ~config:Config.default () in
  let engine = System.engine sys in
  let s0 = Session.create (System.replica sys 0) in
  let s1 = Session.create (System.replica sys 1) in
  Engine.schedule engine ~delay:0.1 (fun () ->
      Timed.write s0 ~op:(Op.Add ("x", 1.0)) ~k:ignore);
  Engine.schedule engine ~delay:5.0 (fun () ->
      Timed.read s1 ~delta:0.5
        ~f:(fun db -> Db.get db "x")
        ~k:(fun v ->
          Printf.printf "delta-read at t=%.2fs sees x = %s (write was 4.9s old)\n"
            (Engine.now engine) (Value.to_string v)));
  System.run ~until:30.0 sys

(* 5. Quasi-copy version condition. *)
let quasi_copy () =
  banner "quasi-copy (at most 2 versions behind)";
  let sys = System.create ~topology:(topo 2) ~config:Config.default () in
  let engine = System.engine sys in
  let s0 = Session.create (System.replica sys 0) in
  let s1 = Session.create (System.replica sys 1) in
  Tact_workload.Workload.staggered engine ~start:0.1 ~gap:0.2 ~count:5 (fun _ ->
      Quasi_copy.write_numeric s0 ~key:"quote" ~delta:1.0 ~k:ignore);
  Engine.schedule engine ~delay:2.0 (fun () ->
      Quasi_copy.read_version s1 ~key:"quote" ~versions:2.0 ~k:(fun v ->
          Printf.printf "version-bounded read sees quote = %s (5 updates happened)\n"
            (Value.to_string v)));
  System.run ~until:30.0 sys

(* 6. ESR epsilon-query. *)
let esr () =
  banner "epsilon-serializability (import limit $10)";
  let config =
    { Config.default with Config.conits = Esr.conits ~items:[ "acct" ] ~epsilon:10.0 }
  in
  let sys = System.create ~topology:(topo 2) ~config () in
  let engine = System.engine sys in
  let s0 = Session.create (System.replica sys 0) in
  let s1 = Session.create (System.replica sys 1) in
  Tact_workload.Workload.staggered engine ~start:0.1 ~gap:0.3 ~count:10 (fun _ ->
      Esr.update s0 ~item:"acct" ~delta:4.0 ~k:ignore);
  Engine.schedule engine ~delay:4.0 (fun () ->
      Esr.epsilon_query s1 ~items:[ "acct" ] ~epsilon:10.0 ~k:(function
        | [ v ] ->
          Printf.printf "epsilon-query sees $%.0f (true total $40, import <= $10)\n" v
        | _ -> ()));
  System.run ~until:30.0 sys

(* 7. Memory-model DAG. *)
let memdag () =
  banner "memory-model DAG (diamond dependency across replicas)";
  let dag = { Memdag.nodes = 4; edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ] } in
  let config = { Config.default with Config.antientropy_period = Some 0.2 } in
  let sys = System.create ~topology:(topo 3) ~config () in
  let engine = System.engine sys in
  let submit ~at ~replica ~node =
    Engine.schedule engine ~delay:at (fun () ->
        let s = Session.create (System.replica sys replica) in
        Memdag.submit s ~dag ~node ~op:Op.Noop ~k:(fun _ ->
            Printf.printf "  node %d executed at replica %d (t=%.2fs)\n" node replica
              (Engine.now engine)))
  in
  submit ~at:0.1 ~replica:0 ~node:0;
  submit ~at:0.3 ~replica:1 ~node:1;
  submit ~at:0.3 ~replica:2 ~node:2;
  submit ~at:1.0 ~replica:0 ~node:3;
  System.run ~until:30.0 sys

let () =
  n_ignorant ();
  conflict_matrix ();
  lazy_replication ();
  timed ();
  quasi_copy ();
  esr ();
  memdag ();
  print_newline ()
