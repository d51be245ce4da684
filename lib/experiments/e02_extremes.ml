open Tact_util
open Tact_sim
open Tact_store
open Tact_core
open Tact_replica

type side = {
  label : string;
  accesses : int;
  anomalies : int;
  write_latency : float;
  read_latency : float;
  messages : int;
  bytes : int;
  committed_ext_compatible : bool;
  violations : int;
}

let nkeys = 4

let key i = Printf.sprintf "item%d" i
let conit_of i = "item.conit." ^ string_of_int i

let run_side ?(quick = false) ~strong ~seed () =
  let n = 3 in
  let duration = if quick then 15.0 else 40.0 in
  let topology = Topology.uniform ~n ~latency:0.03 ~bandwidth:1_000_000.0 in
  let config =
    {
      Config.default with
      Config.conits =
        List.init nkeys (fun i ->
            if strong then Conit.declare ~ne_bound:0.0 (conit_of i)
            else Conit.unconstrained (conit_of i));
      antientropy_period = Some 1.0;
    }
  in
  let sys = System.create ~seed ~topology ~config () in
  let engine = System.engine sys in
  let rng = Prng.create ~seed:(seed * 17) in
  let bound = if strong then Bounds.strong else Bounds.weak in
  let wlat = Stats.create () and rlat = Stats.create () in
  let accesses = ref 0 in
  (* Reads tag their result with the key so the post-hoc oracle can recompute
     the actual value. *)
  for i = 0 to n - 1 do
    let r = System.replica sys i in
    let prng = Prng.split rng in
    Tact_workload.Workload.poisson engine ~rng:prng ~rate:1.0 ~until:duration
      (fun () ->
        incr accesses;
        let ki = Prng.int prng nkeys in
        let t0 = Engine.now engine in
        if Prng.bool prng then
          Replica.submit_write r
            ~deps:[ (conit_of ki, bound) ]
            ~affects:[ { Write.conit = conit_of ki; nweight = 1.0; oweight = 1.0 } ]
            ~op:(Op.Add (key ki, 1.0))
            ~k:(fun _ -> Stats.add wlat (Engine.now engine -. t0))
        else
          Replica.submit_read r
            ~deps:[ (conit_of ki, bound) ]
            ~f:(fun db -> Value.List [ Value.Str (key ki); Db.get db (key ki) ])
            ~k:(fun _ -> Stats.add rlat (Engine.now engine -. t0)))
  done;
  System.run ~until:(duration +. 60.0) sys;
  (* Oracle: recompute actual results. *)
  let all = System.all_writes sys in
  let return_time = System.return_time sys in
  let anomalies = ref 0 in
  List.iter
    (fun (a : Access.t) ->
      match a.kind with
      | Access.Write_access id -> (
        (* Observed (tentative) vs actual (committed) outcome. *)
        let log0 = Replica.log (System.replica sys a.replica) in
        match Wlog.final_outcome log0 id with
        | Some final ->
          if not (Value.equal (Op.result final) a.observed_result) then incr anomalies
        | None -> ())
      | Access.Read -> (
        match a.observed_result with
        | Value.List [ Value.Str k; observed_v ] ->
          let prefix =
            Ecg.actual_prefix ~all ~return_time ~stime:a.submit_time
              ~observed:(fun id ->
                Version_vector.covers a.observed_vector ~origin:id.Write.origin
                  ~seq:id.Write.seq)
          in
          let oracle = Db.create [] in
          List.iter
            (fun (w : Write.t) ->
              ignore (Op.apply ~procs:config.Config.procs w.op oracle))
            prefix;
          if not (Value.equal (Db.get oracle k) observed_v) then incr anomalies
        | _ -> ()))
    (System.records sys);
  let committed0 = Wlog.committed (Replica.log (System.replica sys 0)) in
  let traffic = System.traffic sys in
  {
    label = (if strong then "strong (0,0,0)" else "weak (inf,inf,inf)");
    accesses = !accesses;
    anomalies = !anomalies;
    write_latency = (if Stats.count wlat = 0 then 0.0 else Stats.mean wlat);
    read_latency = (if Stats.count rlat = 0 then 0.0 else Stats.mean rlat);
    messages = traffic.Net.messages;
    bytes = traffic.Net.bytes;
    committed_ext_compatible =
      Ecg.externally_compatible ~order:committed0 ~return_time;
    violations = List.length (Verify.check ~lcp:true sys);
  }

let run ?(quick = false) () =
  let strong = run_side ~quick ~strong:true ~seed:11 () in
  let weak = run_side ~quick ~strong:false ~seed:11 () in
  let tbl =
    Table.create
      ~title:
        "E2 / Section 3.3 — consistency spectrum extremes (3 replicas, mixed \
         read/write)"
      ~columns:
        [ "config"; "accesses"; "anomalies"; "w-lat(s)"; "r-lat(s)"; "msgs";
          "bytes"; "ext-compat"; "violations" ]
  in
  List.iter
    (fun s ->
      Table.add_row tbl
        [ s.label; string_of_int s.accesses; string_of_int s.anomalies;
          Printf.sprintf "%.4f" s.write_latency;
          Printf.sprintf "%.4f" s.read_latency; string_of_int s.messages;
          string_of_int s.bytes; string_of_bool s.committed_ext_compatible;
          string_of_int s.violations ])
    [ strong; weak ];
  Table.render tbl
  ^ "expected: strong has 0 anomalies / 0 violations at much higher latency \
     and traffic;\nweak is cheap but anomalous under concurrency \
     (Theorem 2 / Corollary 1).\n"
