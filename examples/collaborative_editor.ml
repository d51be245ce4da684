(* Shared editor (Section 4.1): per-paragraph conits measure the amount of
   unseen remote modification (numerical error, weighted by character count),
   the instability of the view (order error), and propagation delay
   (staleness).  A network partition shows bounded reads blocking until the
   document can honestly satisfy them.

   Run with: dune exec examples/collaborative_editor.exe *)

open Tact_sim
open Tact_replica
open Tact_apps

let () =
  let topology = Topology.uniform ~n:2 ~latency:0.08 ~bandwidth:250_000.0 in
  let config =
    { Config.default with Config.antientropy_period = Some 1.0; procs = Editor.procs }
  in
  let sys = System.create ~topology ~config () in
  let engine = System.engine sys in
  let author0 = Session.create (System.replica sys 0) in
  let author1 = Session.create (System.replica sys 1) in

  (* Both authors type into paragraph 0. *)
  Tact_workload.Workload.staggered engine ~start:0.5 ~gap:1.0 ~count:20 (fun k ->
      let s, who = if k mod 2 = 0 then (author0, 0) else (author1, 1) in
      Editor.insert_text s ~para:0 ~author:who
        ~text:(Printf.sprintf "[%d:%d]" who k)
        ~k:ignore);
  Engine.schedule engine ~delay:12.0 (fun () ->
      Editor.delete_chars author0 ~para:0 ~author:0 ~count:5 ~k:ignore);

  (* Partition the two sites between t=5 and t=15. *)
  Engine.schedule engine ~delay:5.0 (fun () ->
      print_endline "[t= 5.0s] -- network partition --";
      Links.partition (Net.links (System.net sys)) [ 0 ] [ 1 ]);
  Engine.schedule engine ~delay:15.0 (fun () ->
      print_endline "[t=15.0s] -- partition healed --";
      Links.heal (Net.links (System.net sys)));

  (* A reviewer at replica 1 insists on at most 12 unseen characters and a
     fully stable (committed) view; during the partition this read blocks. *)
  Engine.schedule engine ~delay:8.0 (fun () ->
      let t0 = Engine.now engine in
      Printf.printf "[t= 8.0s] reviewer asks for a stable view (<=12 unseen chars)...\n";
      Editor.read_paragraph author1 ~para:0 ~max_unseen_chars:12.0
        ~max_instability:0.0 ~max_delay:infinity ~k:(fun text ->
          Printf.printf
            "[t=%5.1fs] reviewer's stable view arrived after %.1fs: %d chars\n"
            (Engine.now engine)
            (Engine.now engine -. t0)
            (String.length text)));

  (* A casual reader takes whatever is local, instantly. *)
  Engine.schedule engine ~delay:8.0 (fun () ->
      Editor.read_paragraph author1 ~para:0 ~max_unseen_chars:infinity
        ~max_instability:infinity ~max_delay:infinity ~k:(fun text ->
          Printf.printf "[t= 8.0s] casual reader sees %d chars immediately\n"
            (String.length text)));

  System.run ~until:120.0 sys;
  let doc r = List.hd (Editor.document (Replica.db (System.replica sys r)) ~paras:1) in
  Printf.printf "final document identical on both replicas: %b (%d chars)\n"
    (String.equal (doc 0) (doc 1))
    (String.length (doc 0));
  Printf.printf "bound violations: %d\n" (List.length (Verify.check sys))
