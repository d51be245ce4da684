open Tact_util
open Tact_sim
open Tact_replica
open Tact_apps

let run_one ~instability ~duration =
  let n = 3 in
  let topology = Topology.uniform ~n ~latency:0.05 ~bandwidth:500_000.0 in
  let config =
    { Config.default with Config.antientropy_period = Some 1.0; procs = Editor.procs }
  in
  let sys = System.create ~seed:173 ~topology ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:179 in
  (* Authors type 3–12 character edits. *)
  for i = 0 to n - 1 do
    let session = Session.create (System.replica sys i) in
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.5 ~until:duration
      (fun () ->
        let len = 3 + Prng.int prng 10 in
        Editor.insert_text session ~para:0 ~author:i
          ~text:(String.make len (Char.chr (97 + i)))
          ~k:ignore)
  done;
  (* A reviewer at replica 0 reads under the instability bound. *)
  let lat = Stats.create () in
  let observed_instability = Stats.create () in
  let reviewer = Session.create (System.replica sys 0) in
  let rrng = Prng.split rng in
  Tact_workload.Workload.poisson engine ~rng:rrng ~rate:1.0 ~until:duration
    (fun () ->
      let t0 = Engine.now engine in
      (* True instability at submission: uncommitted character weight. *)
      Stats.add observed_instability
        (Tact_store.Wlog.tentative_oweight
           (Replica.log (System.replica sys 0))
           (Editor.add_conit ~para:0));
      Editor.read_paragraph reviewer ~para:0 ~max_unseen_chars:infinity
        ~max_instability:instability ~max_delay:infinity ~k:(fun _ ->
          Stats.add lat (Engine.now engine -. t0)));
  System.run ~until:(duration +. 90.0) sys;
  let violations = List.length (Verify.check sys) in
  ( (if Stats.count lat = 0 then 0.0 else Stats.mean lat),
    (if Stats.count observed_instability = 0 then 0.0
     else Stats.mean observed_instability),
    violations )

let run ?(quick = false) () =
  let duration = if quick then 15.0 else 45.0 in
  let tbl =
    Table.create
      ~title:
        "E18 / Section 4.1 — shared editor: read latency vs instability bound \
         (3 authors, 3-12 char edits)"
      ~columns:
        [ "instability bound (chars)"; "mean r-lat(s)";
          "ambient instability (chars)"; "violations" ]
  in
  List.iter
    (fun b ->
      let lat, inst, violations = run_one ~instability:b ~duration in
      Table.add_row tbl
        [ (if b = infinity then "inf" else Table.cell_f b);
          Printf.sprintf "%.4f" lat; Printf.sprintf "%.1f" inst;
          string_of_int violations ])
    [ 0.0; 8.0; 32.0; infinity ];
  Table.render tbl
  ^ "expected: tighter instability bounds make reviewers wait for \
     commitment; the ambient (unbounded) instability shows what they are \
     protected from.\n"
