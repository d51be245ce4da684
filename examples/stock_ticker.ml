(* Dynamic content distribution with SUBJECTIVE weights (Section 4.1's
   dynamic-web-page discussion): replicated stock quotes where the numerical
   weight of each update is the actual price movement, so a conit bound is a
   hard dollar bound on how stale a replica's quote can be.

   Small drifts accumulate lazily; a big move blows the budget at once and is
   pushed immediately — exactly the "score changes near the end of a close
   game matter more" idea from the paper.

   Run with: dune exec examples/stock_ticker.exe *)

open Tact_sim
open Tact_store
open Tact_core
open Tact_replica

let quote_conit = "quote.ACME"

let () =
  let n = 3 in
  let topology = Topology.uniform ~n ~latency:0.06 ~bandwidth:500_000.0 in
  (* Any replica's quote may be off by at most $1.00. *)
  let config =
    {
      Config.default with
      Config.conits = [ Conit.declare ~ne_bound:1.0 quote_conit ];
      initial_db = [ ("ACME", Value.Float 100.0) ];
    }
  in
  let sys = System.create ~topology ~config () in
  let engine = System.engine sys in
  let exchange = Session.create (System.replica sys 0) in
  let rng = Tact_util.Prng.create ~seed:77 in

  (* The exchange feeds price movements: mostly cents, occasionally a jump.
     The movement itself is the numerical weight. *)
  let true_price = ref 100.0 in
  Tact_workload.Workload.poisson engine ~rng ~rate:4.0 ~until:30.0 (fun () ->
      let move =
        if Tact_util.Prng.int rng 20 = 0 then
          Tact_util.Prng.uniform_in rng ~lo:(-3.0) ~hi:3.0 (* a jump *)
        else Tact_util.Prng.uniform_in rng ~lo:(-0.08) ~hi:0.08 (* a tick *)
      in
      true_price := !true_price +. move;
      Session.affect_conit exchange quote_conit ~nweight:move ~oweight:0.0;
      Session.write exchange (Op.Add ("ACME", move)) ~k:ignore);

  (* A dashboard at replica 2 samples its local quote each second. *)
  let worst = ref 0.0 in
  Engine.every engine ~period:1.0 (fun () ->
      let local = Db.get_float (Replica.db (System.replica sys 2)) "ACME" in
      let err = Float.abs (local -. !true_price) in
      if err > !worst then worst := err;
      if Engine.now engine < 10.0 then
        Printf.printf "[t=%4.1fs] true $%.2f | replica 2 sees $%.2f (off $%.2f)\n"
          (Engine.now engine) !true_price local err;
      Engine.now engine < 30.0);

  System.run ~until:90.0 sys;
  let traffic = System.traffic sys in
  Printf.printf
    "\nworst quote error at replica 2: $%.2f (bound was $1.00 per conit;\n\
     in-flight pushes add up to one tick beyond it)\n"
    !worst;
  Printf.printf "network cost: %d messages, %d bytes; violations: %d\n"
    traffic.Net.messages traffic.Net.bytes
    (List.length (Verify.check sys))
