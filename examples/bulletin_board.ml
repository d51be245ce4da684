(* The paper's Figure 5 scenario, executably: a replicated bulletin board
   where Alice cares more about her friends' posts than about the rest.

   PostMessage affects conit "AllMsg" (and "MsgFromFriends" when the author
   is a friend); Alice's ReadMessages requires (ne=3, oe=0, st=60) on
   "MsgFromFriends" but only (ne=10, oe=5, st=9999) on "AllMsg" — exactly the
   weight/bound specification printed in the paper.

   Run with: dune exec examples/bulletin_board.exe *)

open Tact_sim
open Tact_store
open Tact_core
open Tact_replica
open Tact_apps

let () =
  let n = 4 in
  let friends = [ 1; 2 ] in
  let topology = Topology.uniform ~n ~latency:0.05 ~bandwidth:500_000.0 in
  let config =
    {
      Config.default with
      Config.conits =
        [ Conit.declare ~ne_bound:10.0 Bboard.conit_all;
          Conit.declare ~ne_bound:3.0 Bboard.conit_friends ];
      antientropy_period = Some 5.0;
    }
  in
  let sys = System.create ~topology ~config () in
  let engine = System.engine sys in
  let rng = Tact_util.Prng.create ~seed:2026 in

  (* Everyone posts; friends' posts also bear on Alice's conit. *)
  for author = 0 to n - 1 do
    let session = Session.create (System.replica sys author) in
    let prng = Tact_util.Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:0.8 ~until:60.0
      (fun () ->
        let text = Printf.sprintf "post by %d at %.1fs" author (Engine.now engine) in
        Bboard.post session ~author ~friends ~text ~k:ignore)
  done;

  (* Alice reads at replica 3 every 10 seconds with Figure 5's bounds. *)
  let alice = Session.create (System.replica sys 3) in
  let all_bound = Bounds.make ~ne:10.0 ~oe:5.0 ~st:9999.0 () in
  let friends_bound = Bounds.make ~ne:3.0 ~oe:0.0 ~st:60.0 () in
  Tact_workload.Workload.staggered engine ~start:10.0 ~gap:10.0 ~count:5 (fun k ->
      Bboard.read_messages alice ~all_bound ~friends_bound ~k:(fun v ->
          let messages = Value.to_list v in
          let from_friends =
            List.length
              (List.filter
                 (function
                   | Value.List [ Value.Int a; _ ] -> List.mem a friends
                   | _ -> false)
                 messages)
          in
          Printf.printf
            "[t=%5.1fs] Alice's read #%d: %d messages visible (%d from friends)\n"
            (Engine.now engine) (k + 1) (List.length messages) from_friends));

  System.run ~until:180.0 sys;
  Printf.printf "total posts: %d; bound violations: %d; converged: %b\n"
    (System.write_count sys)
    (List.length (Verify.check sys))
    (System.converged sys)
