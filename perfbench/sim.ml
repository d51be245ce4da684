(* The two simulated workloads.

   sim-wan: the paper's setting — two LAN clusters of two replicas (2 ms LAN,
   80 ms WAN, as in E17), four conits with declared NE bounds, gossip,
   per-write anti-entropy and stability commitment.  Every replica runs a
   Poisson mix of budgeted writes and bounded reads, so the work is in the
   protocols (budget pushes, pull rounds, commitment) and in the write log
   (rollback and replay from WAN reordering).

   sim-ring: E22's shape — 24 replicas on a gossip ring, batched sync,
   truncation with a bounded log and no access records.  Weak writes enter
   at the ring head, so the work is in the codec (batches really are
   serialised) and in Wlog.writes_since/insert_batch/truncate; the
   protocols are nearly idle and memory must stay flat.

   Latencies are virtual (simulated) milliseconds.  The measured window is
   a fixed span of virtual time proportional to [--seconds], run in short
   slices between which the write logs are sampled. *)

open Tact_util
open Tact_sim
open Tact_store
open Tact_core
open Tact_replica

type shape = Wan | Ring

let name = function Wan -> "sim-wan" | Ring -> "sim-ring"

type kind = W | R

(* Accesses submitted inside one measured window, followed to completion
   even when they complete after the window closes. *)
type win = {
  traced : bool;
  lat_w : Hist.t;  (* virtual ms *)
  lat_r : Hist.t;
  submit_us : Hist.t;  (* wall time of the Replica.submit_* call (traced) *)
  mutable submitted : int;
  mutable completed : int;
  mutable timeouts : int;
  mutable gen_s : float;  (* wall seconds in arrival handlers, outside submit *)
}

type st = {
  shape : shape;
  sys : System.t;
  keep : int;
  spans : Spans.t;
  mutable cur : win option;
  mutable generating : bool;
  mutable next_id : int;
}

let wan_rate = 50.0 (* accesses per second at each replica *)
let ring_rate = 1000.0 (* writes per second at the ring head *)
let ring_n = 24
let ring_gossip = 0.1

let config ~shape ~verify =
  match shape with
  | Wan ->
    let base =
      {
        Config.default with
        Config.conits = List.init 4 (fun i -> Conit.declare ~ne_bound:8.0 ("c" ^ string_of_int i));
        antientropy_period = Some 1.0;
        truncate_keep = Some 4000;
        record_accesses = false;
        bounded_log = true;
      }
    in
    (* The verifier needs access records and the whole commit journal: the
       definitional order-error reading compares full local histories. *)
    if verify then
      { base with Config.record_accesses = true; bounded_log = false; truncate_keep = None }
    else base
  | Ring ->
    {
      Config.default with
      Config.antientropy_period = Some ring_gossip;
      truncate_keep = Some 500;
      sync = Config.Batched;
      batch_flush = 0.05;
      record_accesses = false;
      bounded_log = true;
      gossip_plan = Some (fun i -> [| (i + 1) mod ring_n |]);
    }

let keep_of (c : Config.t) = Option.value c.Config.truncate_keep ~default:0

let build ~shape ~seed ~verify =
  let config = config ~shape ~verify in
  let sys =
    match shape with
    | Wan ->
      let topology =
        Topology.clustered ~clusters:2 ~per_cluster:2 ~local:0.002 ~wan:0.08
          ~bandwidth:500_000.0
      in
      System.create ~seed ~track_writes:verify ~topology ~config ()
    | Ring ->
      let topology = Topology.uniform ~n:ring_n ~latency:0.02 ~bandwidth:1e9 in
      System.create ~seed ~jitter:0.02 ~track_writes:false ~topology ~config ()
  in
  { shape; sys; keep = keep_of config; spans = Spans.create (); cur = None;
    generating = true; next_id = 0 }

(* One access at replica [i]: every random choice is drawn before the submit,
   so the inputs depend on the seed alone. *)
let arrival st ~rng i =
  let eng = System.engine st.sys in
  let id = st.next_id in
  st.next_id <- id + 1;
  let w = st.cur in
  let traced = match w with Some w -> w.traced | None -> false in
  let t_in = if traced then Proc.now () else 0.0 in
  Option.iter (fun w -> w.submitted <- w.submitted + 1) w;
  let t0 = Engine.now eng in
  let finish kind =
    Option.iter
      (fun w ->
        w.completed <- w.completed + 1;
        let t1 = Engine.now eng in
        Hist.add (match kind with W -> w.lat_w | R -> w.lat_r) ((t1 -. t0) *. 1000.0);
        if w.traced then
          Spans.add st.spans ~id ~name:(match kind with W -> "write" | R -> "read")
            ~clock:"virtual" ~start:t0 ~stop:t1)
      w
  in
  let on_timeout () = Option.iter (fun w -> w.timeouts <- w.timeouts + 1) w in
  let deadline = t0 +. 30.0 in
  let r = System.replica st.sys i in
  let submit =
    match st.shape with
    | Ring ->
      let key = "x" ^ string_of_int (id mod 64) in
      fun () ->
        Replica.submit_write r ~deadline ~on_timeout ~deps:[]
          ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add (key, 1.0))
          ~k:(fun _ -> finish W)
    | Wan ->
      let c = "c" ^ string_of_int (Prng.int rng 4) in
      if Prng.bool rng then fun () ->
        Replica.submit_write r ~deadline ~on_timeout ~deps:[]
          ~affects:[ { Write.conit = c; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add (c, 1.0))
          ~k:(fun _ -> finish W)
      else begin
        (* Nine reads in ten bound all three metrics: NE tighter than the
           declared 8 forces a pull round, and OE then holds the read until
           commitment catches up.  The tenth bounds staleness alone, which
           pulls only from peers whose cover is older than 0.2 s. *)
        let bound =
          if Prng.int rng 10 = 0 then Bounds.make ~st:0.2 ()
          else Bounds.make ~ne:1.0 ~oe:2.0 ~st:0.5 ()
        in
        fun () ->
          Replica.submit_read r ~deadline ~on_timeout ~deps:[ (c, bound) ]
            ~f:(fun db -> Db.get db c)
            ~k:(fun _ -> finish R)
      end
  in
  match w with
  | Some w when w.traced ->
    let ts = Proc.now () in
    submit ();
    let te = Proc.now () in
    Hist.add w.submit_us ((te -. ts) *. 1e6);
    Spans.add st.spans ~id ~name:"replica.submit" ~clock:"wall" ~start:ts ~stop:te;
    w.gen_s <- w.gen_s +. (ts -. t_in)
  | _ -> submit ()

let rec chain st ~rng ~rate i =
  if st.generating then
    Engine.schedule (System.engine st.sys)
      ~delay:(Prng.exponential rng ~mean:(1.0 /. rate))
      (fun () ->
        if st.generating then begin
          arrival st ~rng i;
          chain st ~rng ~rate i
        end)

let start_generators st ~seed =
  let rng = Prng.create ~seed:((seed * 7919) + 17) in
  match st.shape with
  | Wan ->
    for i = 0 to System.size st.sys - 1 do
      chain st ~rng:(Prng.split rng) ~rate:wan_rate i
    done
  | Ring -> chain st ~rng:(Prng.split rng) ~rate:ring_rate 0

let replicas st = List.init (System.size st.sys) (System.replica st.sys)

(* Writes held beyond the retained committed prefix: the tentative suffix. *)
let tentative r =
  let log = Replica.log r in
  Wlog.num_known log - Wlog.retained log

(* Build, start the generators and run until every replica's write log holds
   its full truncation horizon — the log's steady size. *)
let setup ~shape ~seed =
  let st = build ~shape ~seed ~verify:false in
  start_generators st ~seed;
  System.prepare st.sys;
  let eng = System.engine st.sys in
  let steady () =
    List.for_all (fun r -> Wlog.retained (Replica.log r) >= st.keep) (replicas st)
  in
  while (not (steady ())) && Engine.now eng < 120.0 do
    Engine.run ~until:(Engine.now eng +. 0.5) eng
  done;
  st

(* Counters read at the edges of a window. *)
type snap = {
  wall : float;
  cpu : float;
  events : int;
  net : Net.stats;
  stats : Replica.stats;
  rollbacks : int;
  gc : Gc.stat;
}

let snap st =
  {
    wall = Proc.now ();
    cpu = Proc.cpu_s ();
    events = Engine.events_executed (System.engine st.sys);
    net = System.traffic st.sys;
    stats = System.total_stats st.sys;
    rollbacks =
      List.fold_left (fun a r -> a + Wlog.rollbacks (Replica.log r)) 0 (replicas st);
    gc = Gc.quick_stat ();
  }

type samples = {
  mutable tent_first : int;  (* max tentative suffix, first half of window *)
  mutable tent_second : int;
  mutable retained_max : int;
  mutable pending_max : int;
}

type measured = {
  w : win;
  a : snap;
  b : snap;
  s : samples;
  cpu_parts : float list;
      (* CPU us per access in each [window_parts]th, normalised by the
         reference timed right after that part (Calib) *)
}

(* CPU per access is taken in this many parts of the window, each read at
   the nominal machine speed of the reference timed right after it; the
   reported value is their median, which also rejects short bursts of
   interference. *)
let window_parts = 20

(* Virtual seconds simulated per second of [--seconds]: a window is a fixed
   amount of simulated work, sized to take about [--seconds] of wall time on
   a 2-vCPU VM, so that the work (and the memory it leaves behind, such as
   the write log's per-write slot index) does not depend on how fast the
   program runs. *)
let virtual_per_second = function Wan -> 200.0 | Ring -> 10.0

let window st ~seconds ~traced =
  let w =
    { traced; lat_w = Hist.create (); lat_r = Hist.create (); submit_us = Hist.create ();
      submitted = 0; completed = 0; timeouts = 0; gen_s = 0.0 }
  in
  let s = { tent_first = 0; tent_second = 0; retained_max = 0; pending_max = 0 } in
  let eng = System.engine st.sys in
  let slice = match st.shape with Wan -> 0.25 | Ring -> 0.1 in
  let t_start = Engine.now eng in
  let length = seconds *. virtual_per_second st.shape in
  let a = snap st in
  st.cur <- Some w;
  let raws = ref [] and refs = ref [] in
  let parts = ref [] and part_cpu = ref a.cpu and part_ops = ref 0 and part = ref 1 in
  while Engine.now eng < t_start +. length do
    Engine.run ~until:(Float.min (Engine.now eng +. slice) (t_start +. length)) eng;
    if Engine.now eng >= t_start +. (length *. float_of_int !part /. float_of_int window_parts)
    then begin
      let cpu = Proc.cpu_s () in
      let raw = (cpu -. !part_cpu) *. 1e6 /. float_of_int (max 1 (w.submitted - !part_ops)) in
      let ref_cost = Calib.cost () in
      parts := Calib.normalise raw ~ref_cost :: !parts;
      raws := raw :: !raws;
      refs := ref_cost :: !refs;
      part_cpu := Proc.cpu_s ();
      part_ops := w.submitted;
      incr part
    end;
    let first_half = Engine.now eng -. t_start < length /. 2.0 in
    List.iter
      (fun r ->
        let t = tentative r in
        if first_half then s.tent_first <- max s.tent_first t
        else s.tent_second <- max s.tent_second t;
        s.retained_max <- max s.retained_max (Wlog.retained (Replica.log r));
        s.pending_max <- max s.pending_max (Replica.pending_count r))
      (replicas st)
  done;
  st.cur <- None;
  Report.info "cpu_us_per_op raw %.3f, reference %.6f s (medians of parts)" (Report.median !raws)
    (Report.median !refs);
  { w; a; b = snap st; s; cpu_parts = !parts }

let per_op m x = x /. float_of_int (max 1 m.w.submitted)
let cpu_us_per_op m = Report.median_of_parts "cpu_us_per_op" m.cpu_parts
let ops_per_s m = float_of_int m.w.submitted /. (m.b.wall -. m.a.wall)

let e2e_metrics rep st m =
  Report.add rep "cpu_us_per_op" "us/op" (cpu_us_per_op m);
  Report.add rep "e2e.ops_per_s" "1/s" (ops_per_s m);
  (match st.shape with
  | Wan ->
    Report.latency rep ~prefix:"e2e.write" m.w.lat_w;
    Report.latency rep ~prefix:"e2e.read" m.w.lat_r
  | Ring -> ());
  Report.add rep "e2e.msgs_per_op" "1/op"
    (per_op m (float_of_int (m.b.net.Net.messages - m.a.net.Net.messages)));
  Report.add rep "e2e.bytes_per_op" "B/op"
    (per_op m (float_of_int (m.b.net.Net.bytes - m.a.net.Net.bytes)))

let layer_metrics rep st m =
  let d f = float_of_int (f m.b.stats - f m.a.stats) in
  let po = per_op m in
  Report.add rep "gen.cpu_us_per_op" "us/op" (po (m.w.gen_s *. 1e6));
  Report.add rep "sim.events_per_op" "1/op" (po (float_of_int (m.b.events - m.a.events)));
  Report.add rep "sim.max_msg_bytes" "B" (float_of_int m.b.net.Net.max_message);
  Report.info "histogram %-20s %s (us)" "replica.submit" (Hist.summary m.w.submit_us);
  Report.add rep "replica.submit_us_p50" "us" (Hist.quantile m.w.submit_us 0.5);
  Report.add rep "replica.submit_us_p99" "us" (Hist.quantile m.w.submit_us 0.99);
  Report.add rep "replica.blocked_frac" "ratio" (po (d (fun s -> s.Replica.blocked_accesses)));
  Report.add rep "replica.pending_max" "count" (float_of_int m.s.pending_max);
  Report.add rep "replica.timeouts" "count" (d (fun s -> s.Replica.timeouts));
  Report.add rep "replica.records" "count"
    (float_of_int
       (List.fold_left (fun n r -> n + List.length (Replica.records r)) 0 (replicas st)));
  Report.add rep "protocols.budget_pushes_per_op" "1/op" (po (d (fun s -> s.Replica.pushes_budget)));
  Report.add rep "protocols.ne_pulls_per_op" "1/op" (po (d (fun s -> s.Replica.pulls_ne)));
  Report.add rep "protocols.oe_pulls_per_op" "1/op" (po (d (fun s -> s.Replica.pulls_oe)));
  Report.add rep "protocols.st_pulls_per_op" "1/op" (po (d (fun s -> s.Replica.pulls_st)));
  Report.add rep "protocols.gossips_per_op" "1/op" (po (d (fun s -> s.Replica.gossips)));
  Report.add rep "wlog.rollbacks_per_op" "1/op"
    (po (float_of_int (m.b.rollbacks - m.a.rollbacks)));
  Report.add rep "wlog.tentative_max" "count" (float_of_int (max m.s.tent_first m.s.tent_second));
  Report.add rep "wlog.tentative_growth" "ratio"
    (float_of_int m.s.tent_second /. float_of_int (max 1 m.s.tent_first));
  Report.add rep "wlog.retained_max" "count" (float_of_int m.s.retained_max);
  Report.add rep "wlog.snapshots_per_op" "1/op" (po (d (fun s -> s.Replica.snapshots_installed)));
  let batches = d (fun s -> s.Replica.batches) in
  Report.add rep "codec.batches_per_op" "1/op" (po batches);
  Report.add rep "codec.bytes_per_batch" "B"
    (if batches > 0.0 then float_of_int (m.b.net.Net.bytes - m.a.net.Net.bytes) /. batches
     else 0.0);
  let n = System.size st.sys in
  let log = Replica.log (System.replica st.sys 0) in
  let writes = Wlog.committed log @ Wlog.tentative log in
  let enc, dec = Codec_probe.measure ~n writes in
  Report.add rep "codec.encode_ns_per_byte" "ns/B" enc;
  Report.add rep "codec.decode_ns_per_byte" "ns/B" dec;
  Report.add rep "gc.minor_words_per_op" "words/op" (po (m.b.gc.Gc.minor_words -. m.a.gc.Gc.minor_words));
  Report.add rep "gc.major_collections" "count"
    (float_of_int (m.b.gc.Gc.major_collections - m.a.gc.Gc.major_collections));
  Report.add rep "gc.top_heap_mb" "MB"
    (float_of_int (m.b.gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6)

(* The verifier's run: same seed and configuration except that access
   records and the commit journal are kept, short enough for Verify.check
   (its cost grows much faster than linearly with the access count). *)
let verify_run rep ~seed =
  let st = build ~shape:Wan ~seed ~verify:true in
  start_generators st ~seed;
  System.prepare st.sys;
  let eng = System.engine st.sys in
  Engine.run ~until:2.0 eng;
  st.generating <- false;
  Engine.run ~until:40.0 eng;
  System.collect_returns st.sys;
  let violations = Verify.check ~lcp:true st.sys in
  if violations <> [] then Report.info "%s" (Verify.summarize violations);
  Report.check rep (violations = []) "verify: %d accesses, %d bound violations"
    (List.length (System.records st.sys)) (List.length violations)

let answered_check rep label w =
  let unanswered = w.submitted - w.completed - w.timeouts in
  Report.check rep (unanswered = 0 && w.timeouts = 0)
    "%s: %d accesses, %d unanswered, %d timed out" label w.submitted unanswered w.timeouts

let run rep ~shape ~seed ~seconds ~trace =
  (* Set-up is CPU-bound here, so like the window's CPU it is read at the
     reference's nominal speed, timed right after it. *)
  let timed_setup () =
    let t0 = Proc.now () in
    let st = setup ~shape ~seed in
    let t = Proc.now () -. t0 in
    (Calib.normalise t ~ref_cost:(Calib.cost ()), st)
  in
  (* Set up [setups] times, all but the last in children so that their memory
     does not count towards this process's peak; report the median. *)
  let trials = List.init (Report.setups - 1) (fun _ -> Proc.in_child (fun () -> fst (timed_setup ()))) in
  let last, st = timed_setup () in
  Report.setup_time rep (trials @ [ last ]);
  let plain = window st ~seconds ~traced:false in
  let traced = if trace then Some (window st ~seconds ~traced:true) else None in
  (* Drain outside the windows: stop arrivals, let gossip and deadlines run. *)
  st.generating <- false;
  let eng = System.engine st.sys in
  Engine.run ~until:(Engine.now eng +. 40.0) eng;
  Report.add rep "peak_rss_mb" "MB" (Proc.peak_rss_mb ());
  e2e_metrics rep st plain;
  let failed = plain.w.submitted - plain.w.completed in
  rep.Report.attempted <- plain.w.submitted;
  rep.Report.failed <- failed;
  Report.add rep "e2e.failed_frac" "ratio"
    (float_of_int failed /. float_of_int (max 1 plain.w.submitted));
  Report.check rep (plain.w.submitted > 0) "accesses in window: %d" plain.w.submitted;
  answered_check rep "window" plain.w;
  Option.iter
    (fun m ->
      answered_check rep "traced window" m.w;
      layer_metrics rep st m;
      Report.add rep "trace.overhead_ops_per_s" "1/s" (ops_per_s m -. ops_per_s plain);
      Report.add rep "trace.overhead_cpu_us_per_op" "us/op" (cpu_us_per_op m -. cpu_us_per_op plain);
      Spans.write st.spans ~path:(Printf.sprintf ".bench_out/spans-%s-%d.tsv" (name shape) seed))
    traced;
  Report.check rep (System.converged st.sys) "replicas converged after drain";
  match shape with
  | Ring ->
    let bound = st.keep + int_of_float (ring_rate *. ring_gossip) in
    Report.check rep (plain.s.retained_max <= bound)
      "retained max %d <= keep + one commit round (%d)" plain.s.retained_max bound
  | Wan -> verify_run rep ~seed
