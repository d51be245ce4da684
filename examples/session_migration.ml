(* Session guarantees across replica migration: a mobile user posts at one
   site, roams to another, and reads their own post — or doesn't, depending
   on the guarantees their session carries.  (Bayou's session guarantees,
   layered over the conit machinery; the substrate the paper builds on.)

   Run with: dune exec examples/session_migration.exe *)

open Tact_sim
open Tact_store
open Tact_replica

let roam ~label ~guarantees =
  let topology = Topology.uniform ~n:2 ~latency:0.08 ~bandwidth:250_000.0 in
  (* No gossip: the second site learns nothing unless a guarantee forces it. *)
  let sys = System.create ~topology ~config:Config.default () in
  let engine = System.engine sys in
  let user = Session.create ~guarantees (System.replica sys 0) in
  Engine.schedule engine ~delay:0.5 (fun () ->
      Session.write user (Op.Append ("wall", Value.Str "my post")) ~k:(fun _ ->
          (* The user roams to site 1 and immediately reads their wall. *)
          Session.migrate user (System.replica sys 1);
          let t0 = Engine.now engine in
          Session.read user
            (fun db -> Db.get db "wall")
            ~k:(fun v ->
              Printf.printf "%-28s sees %d post(s) after %.3fs at the new site\n"
                label
                (List.length (Value.to_list v))
                (Engine.now engine -. t0))));
  System.run ~until:30.0 sys

let () =
  print_endline "a user posts at site 0, roams to site 1, reads their wall:";
  roam ~label:"plain session:" ~guarantees:[];
  roam ~label:"read-your-writes session:" ~guarantees:[ Session.Read_your_writes ];
  print_endline
    "(the guarantee makes the new site pull the user's writes before serving\n\
     — consistency that follows the client, not the replica)"
