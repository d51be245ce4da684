(* The bench harness: one table of kernels.

   Each kernel is a wall-clock measurement of one hot path, tagged with the
   layer it exercises (codec, wlog, protocol, system, transport, check), at
   a full size where its asymptotic cost dominates and a smoke size that
   runs in milliseconds.  Every kernel asserts its own postconditions, so
   [--smoke] doubles as a correctness guard.  A kernel with a reference
   twin (writes_since merge vs reference, wlog_index flat vs hashtbl, round
   encode naive vs arena, sync_traffic per-write vs batched) has both as
   entries, timed one at a time on the same workload.

   Every report has one JSON schema, written and read through
   Tact_util.Json:
     {cores, ocaml_version,
      kernels: [{name, layer, n, seconds, counts?, gated?}]}
   [counts] holds the integer figures measured next to the time (messages,
   bytes, allocations, schedules) and the kernel's parameters besides [n].
   [gated] maps the counts that are deterministic for the kernel's seed to
   a relative tolerance, stated with the kernel in [kernels]; files written
   before the field load with nothing gated.  Two reports compare kernel by
   kernel on (name, n), and [--compare A B] exits 1 when a count gated in B
   moved from A by more than its tolerance.

   Usage:
     dune exec bench/main.exe -- --smoke [-j N]             # smoke sizes + schema self-check
     dune exec bench/main.exe -- --json [--out=FILE] [-j N] # full sizes -> FILE (bench.json)
     dune exec bench/main.exe -- --compare A.json B.json    # A/B time ratio; gated counts must hold

   [-j N] sets the job counts of the kernels that sweep them, pool_scaling
   and shard_scaling, to 1 and N; the default sweep is 1, 2 and 4.  A job
   count is a number of domains, the calling one included.  The
   paper experiments are run by [tact all] and [tact exp]. *)

open Tact_store

type layer = Codec | Wlog | Protocol | System | Transport | Check

let layer_names =
  [ (Codec, "codec"); (Wlog, "wlog"); (Protocol, "protocol"); (System, "system");
    (Transport, "transport"); (Check, "check") ]

type kernel = {
  name : string;
  layer : layer;
  full : int;
  smoke : int;
  run : int -> float * (string * int) list;
      (* at size n: wall-clock seconds and integer counts *)
  gated : (string * float) list;
      (* count -> relative tolerance against a reference file *)
}

(* Wall clock of [f ()], rounded to the microsecond the reports carry. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Float.round ((Unix.gettimeofday () -. t0) *. 1e6) /. 1e6)

(* A kernel timed end to end, with no counts. *)
let timed f n =
  let (), s = time (fun () -> f n) in
  (s, [])

let bench_write ~origin ~seq ~t =
  Write.make ~id:{ origin; seq } ~accept_time:t
    ~op:(Op.Add ("x", 1.0))
    ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]

(* ------------------------------------------------------------------ *)
(* wlog                                                                *)

(* Accept [writes] local writes, then commit them through the primary-CSN
   path in timestamp order, 64 ids at a time — the shape of a replica
   catching up on a CSN backlog accumulated while commitment lagged. *)
let accept_commit writes =
  let batch = 64 in
  let log = Wlog.create ~replicas:2 ~initial:[] in
  for seq = 1 to writes do
    ignore (Wlog.accept log (bench_write ~origin:0 ~seq ~t:(float_of_int seq)))
  done;
  let committed = ref 0 in
  let pending = ref [] in
  for seq = 1 to writes do
    pending := { Write.origin = 0; seq } :: !pending;
    if seq mod batch = 0 || seq = writes then begin
      committed := !committed + Wlog.commit_ids log (List.rev !pending);
      pending := []
    end
  done;
  assert (!committed = writes);
  assert (Wlog.committed_count log = writes);
  assert (Wlog.tentative log = [])

(* Two origins with interleaved timestamps where one origin's stream is
   delivered 64 writes behind the other: every second insert lands 64
   positions short of the tail of the tentative suffix — the WAN-jitter
   out-of-order arrival pattern. *)
let insert_storm writes =
  let lag = 64 in
  let log = Wlog.create ~replicas:3 ~initial:[] in
  let half = writes / 2 in
  for i = 1 to half + lag do
    if i <= half then
      ignore (Wlog.insert log (bench_write ~origin:0 ~seq:i ~t:(float_of_int (2 * i))));
    if i > lag then begin
      let j = i - lag in
      ignore
        (Wlog.insert log (bench_write ~origin:1 ~seq:j ~t:(float_of_int ((2 * j) - 1))))
    end
  done;
  assert (Wlog.num_known log = 2 * half);
  (* The full image saw every write exactly once despite the reordering. *)
  assert (Db.get_float (Wlog.db log) "x" = float_of_int (2 * half))

(* Anti-entropy delta extraction: one sender's write log holding [writes]
   writes spread over 16 origins with interleaved timestamps, queried for
   the deltas owed to peers at full, half and 10% lag — initial sync, a
   stale peer, steady-state gossip — 10 times over.  Times either the
   k-way-merge [Wlog.writes_since] or a faithful re-creation of the seed
   algorithm (per-(origin,seq) Hashtbl probe + List.sort); both entries
   first assert the two produce identical output. *)
let writes_since ~reference writes =
  let replicas = 16 and reps = 10 in
  let log = Wlog.create ~replicas ~initial:[] in
  for i = 0 to writes - 1 do
    let origin = i mod replicas and seq = (i / replicas) + 1 in
    ignore (Wlog.insert log (bench_write ~origin ~seq ~t:(float_of_int i)))
  done;
  let zero = Version_vector.create replicas in
  let by_id = Hashtbl.create (2 * writes) in
  List.iter (fun (w : Write.t) -> Hashtbl.replace by_id w.id w) (Wlog.writes_since log zero);
  let vec = Wlog.vector log in
  let seed_algorithm have =
    let out = ref [] in
    for origin = 0 to replicas - 1 do
      for
        seq = Version_vector.get have origin + 1 to Version_vector.get vec origin
      do
        match Hashtbl.find_opt by_id { Write.origin; seq } with
        | Some w -> out := w :: !out
        | None -> assert false
      done
    done;
    List.sort Write.ts_compare !out
  in
  let lagged frac =
    let v = Version_vector.create replicas in
    for o = 0 to replicas - 1 do
      let n = Version_vector.get vec o in
      Version_vector.set v o (n - int_of_float (frac *. float_of_int n))
    done;
    v
  in
  let haves = [ zero; lagged 0.5; lagged 0.1 ] in
  List.iter
    (fun have ->
      let a = Wlog.writes_since log have and b = seed_algorithm have in
      assert (List.length a = List.length b);
      List.iter2 (fun (x : Write.t) (y : Write.t) -> assert (x.id = y.id)) a b)
    haves;
  let f = if reference then seed_algorithm else Wlog.writes_since log in
  let (), s =
    time (fun () ->
        for _ = 1 to reps do
          List.iter (fun have -> ignore (f have)) haves
        done)
  in
  (s, [ ("replicas", replicas); ("reps", reps) ])

(* The per-delivery bookkeeping trace the write log executes, over 16
   origins committing every 64 rounds.  [index_delivery] runs the real Wlog
   insert+commit path with an outcome probe per delivery (the E22 ring
   shape); [index_flat] and [index_hashtbl] replay the bookkeeping alone —
   register (duplicate check + store), record the tentative outcome, mark
   committed in batches with the final outcome, shed at truncation —
   against flat per-origin columns shaped like the log's (write, flag byte,
   unboxed float outcome) and against the seed's four Write.id-keyed
   Hashtbls they replaced. *)
let origins = 16
let commit_batch = 64

let index_delivery writes =
  let per_origin = writes / origins in
  let log = Wlog.create ~replicas:(origins + 1) ~initial:[] in
  let (), s =
    time (fun () ->
        for seq = 1 to per_origin do
          for o = 1 to origins do
            let t = (float_of_int seq *. float_of_int origins) +. float_of_int o in
            ignore (Wlog.insert log (bench_write ~origin:o ~seq ~t));
            assert (Wlog.outcome log { Write.origin = o; seq } <> None)
          done;
          if seq mod commit_batch = 0 || seq = per_origin then
            ignore (Wlog.commit_stable log ~cover:(Array.make (origins + 1) infinity))
        done)
  in
  assert (Wlog.num_known log = writes);
  assert (Wlog.committed_count log = writes);
  (s, [])

type columns = { c_write : Write.t array; c_flags : Bytes.t; c_out : float array }

let no_write = bench_write ~origin:(-1) ~seq:0 ~t:0.0
(* The mirror's own flag byte: bit 0 marks a float outcome, bit 1 a
   committed write with its final outcome. *)
let float_outcome = 1
let committed_final = 2

let index_flat writes =
  let per_origin = writes / origins in
  let flat =
    Array.init (origins + 1) (fun _ ->
        { c_write = Array.make per_origin no_write; c_flags = Bytes.make per_origin '\000';
          c_out = Array.make per_origin 0.0 })
  in
  let (), s =
    time (fun () ->
        for seq = 1 to per_origin do
          for o = 1 to origins do
            let c = flat.(o) in
            assert (c.c_write.(seq - 1) == no_write);  (* duplicate check *)
            c.c_write.(seq - 1) <- bench_write ~origin:o ~seq ~t:(float_of_int seq);
            c.c_out.(seq - 1) <- float_of_int seq;
            Bytes.set c.c_flags (seq - 1) (Char.chr float_outcome)
          done;
          if seq mod commit_batch = 0 || seq = per_origin then
            for b = max 1 (seq - commit_batch + 1) to seq do
              for o = 1 to origins do
                let c = flat.(o) in
                let f = Char.code (Bytes.get c.c_flags (b - 1)) in
                if f land committed_final = 0 then
                  Bytes.set c.c_flags (b - 1) (Char.chr (f lor committed_final))
              done
            done
        done;
        for o = 1 to origins do
          for i = 0 to per_origin - 1 do
            flat.(o).c_write.(i) <- no_write  (* truncation shed *)
          done
        done)
  in
  assert (Array.for_all (fun c -> Array.for_all (fun w -> w == no_write) c.c_write) flat);
  (s, [])

let index_hashtbl writes =
  let per_origin = writes / origins in
  let by_id : (Write.id, Write.t) Hashtbl.t = Hashtbl.create 1024 in
  let committed_ids : (Write.id, unit) Hashtbl.t = Hashtbl.create 1024 in
  let outcomes : (Write.id, int) Hashtbl.t = Hashtbl.create 1024 in
  let finals : (Write.id, int) Hashtbl.t = Hashtbl.create 1024 in
  let (), s =
    time (fun () ->
        for seq = 1 to per_origin do
          for o = 1 to origins do
            let id = { Write.origin = o; seq } in
            assert (Hashtbl.find_opt by_id id = None);  (* duplicate check *)
            Hashtbl.replace by_id id (bench_write ~origin:o ~seq ~t:(float_of_int seq));
            Hashtbl.replace outcomes id seq
          done;
          if seq mod commit_batch = 0 || seq = per_origin then
            for b = max 1 (seq - commit_batch + 1) to seq do
              for o = 1 to origins do
                let id = { Write.origin = o; seq = b } in
                if not (Hashtbl.mem committed_ids id) then begin
                  Hashtbl.replace committed_ids id ();
                  Hashtbl.replace finals id b
                end
              done
            done
        done;
        for o = 1 to origins do
          for seq = 1 to per_origin do
            Hashtbl.remove by_id { Write.origin = o; seq }  (* truncation shed *)
          done
        done)
  in
  assert (Hashtbl.length by_id = 0);
  assert (Hashtbl.length finals = writes);
  (s, [])

(* [writes] accepts, then one stability commit of all of them. *)
let accept_stable writes =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  for seq = 1 to writes do
    ignore (Wlog.accept log (bench_write ~origin:0 ~seq ~t:(float_of_int seq)))
  done;
  ignore (Wlog.commit_stable log ~cover:[| infinity; infinity |]);
  assert (Wlog.committed_count log = writes)

(* Deliver origin 1's writes 1 .. [n] to a log of two replicas in 64-write
   [Batch] frames, as a replica that never reads receives them. *)
let deliver_frames log n =
  let vector = Version_vector.create 2 in
  let seq = ref 0 in
  while !seq < n do
    let ws =
      List.init (min 64 (n - !seq)) (fun i ->
          let seq = !seq + i + 1 in
          bench_write ~origin:1 ~seq ~t:(float_of_int seq))
    in
    seq := !seq + List.length ws;
    Version_vector.set vector 1 !seq;
    let frame =
      { Batch.from = 1; shard = 0; kind = Batch.Push; vector; cover = [| 0.0; 0.0 |];
        csn_start = 0; csn = []; rate = 0.0; payload = Batch.Delta ws }
    in
    let frame =
      match Batch.decode (Batch.to_string frame) with
      | Ok b -> b
      | Error e -> failwith (Transport.error_to_string e)
    in
    let fresh = Wlog.insert_batch log (Batch.payload_writes frame) in
    assert (List.length fresh = List.length ws)
  done

(* The live heap [f ()] leaves behind, in words, after full major
   collections. *)
let live_words_of f =
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let r, s = time f in
  Gc.full_major ();
  (r, s, (Gc.stat ()).Gc.live_words - before)

(* The write log's memory per held write, the write itself included.  A
   bounded-memory replica that never reads receives one origin's writes,
   commits all but [tentative] of them, and truncates to [tentative / 4]
   retained: [words_per_write] is the live heap the log adds per write it
   still holds.  [retained_words_per_write] is the same for a log that
   commits every write it receives and truncates nothing, so each one it
   holds is committed and retained, with its final outcome. *)
let log_live_words tentative =
  let keep = tentative / 4 in
  let committed = 2 * tentative in
  let total = committed + tentative in
  let create () = Wlog.create_bounded ~procs:[] ~bounded:true ~replicas:2 ~initial:[] in
  let log, s, live =
    live_words_of (fun () ->
        let log = create () in
        deliver_frames log total;
        let cover = [| float_of_int committed +. 0.5; 0.0 |] in
        assert (Wlog.commit_stable log ~cover = committed);
        assert (Wlog.truncate log ~keep = committed - keep);
        log)
  in
  assert (Wlog.retained log = keep);
  assert (List.length (Wlog.tentative_ids log) = tentative);
  let held = tentative + keep in
  let all, _, retained_live =
    live_words_of (fun () ->
        let log = create () in
        deliver_frames log held;
        assert (Wlog.commit_stable log ~cover:[| infinity; infinity |] = held);
        log)
  in
  assert (Wlog.retained all = held && Wlog.tentative_ids all = []);
  ( s,
    [ ("words_per_write", live / held); ("retained_words_per_write", retained_live / held);
      ("retained", keep) ] )

(* Truncation under a large retained prefix, the sim-wan shape: a bounded
   log of four origins holds [keep] = 4,000 committed writes, then [steps]
   steps each deliver one write, commit it and truncate back to [keep], so
   every step drops the write committed 4,000 steps earlier.  Times the
   steps; [ns_per_drop] is that time per step and [minor_words_per_drop]
   the allocation per step, the delivered write itself excluded. *)
let truncate_steps steps =
  let keep = 4_000 and replicas = 4 in
  let ws =
    Array.init (keep + steps) (fun i ->
        bench_write ~origin:(i mod replicas) ~seq:((i / replicas) + 1) ~t:(float_of_int (i + 1)))
  in
  let log = Wlog.create_bounded ~procs:[] ~bounded:true ~replicas ~initial:[] in
  let cover = Array.make replicas 0.0 in
  let step i =
    let w = ws.(i) in
    ignore (Wlog.insert log w);
    Array.fill cover 0 replicas (w.accept_time +. 0.5);
    assert (Wlog.commit_stable log ~cover = 1);
    ignore (Wlog.truncate log ~keep)
  in
  for i = 0 to keep - 1 do
    step i
  done;
  assert (Wlog.retained log = keep);
  let minor0 = Gc.minor_words () in
  let (), s =
    time (fun () ->
        for i = keep to keep + steps - 1 do
          step i
        done)
  in
  let minor = Gc.minor_words () -. minor0 in
  assert (Wlog.retained log = keep && Wlog.committed_count log = keep + steps);
  ( s,
    [ ("keep", keep); ("ns_per_drop", int_of_float (s *. 1e9 /. float_of_int steps));
      ("minor_words_per_drop", int_of_float (minor /. float_of_int steps)) ] )

(* Observation capture on a records-on replica whose tentative suffix never
   commits: [accesses] weak accesses, alternating writes and reads, at one
   replica of two with no gossip, so the suffix grows to [accesses / 2]
   writes while every capture stays one record and two vector copies.
   Times the records-on run and counts the minor words one capture
   allocates: the run's minor words less those of the same run with records
   off, per access.  The count has a fixed shape, so it is gated. *)
let observe_capture accesses =
  let open Tact_sim in
  let open Tact_replica in
  let run record_accesses =
    let topology = Topology.uniform ~n:2 ~latency:0.005 ~bandwidth:1e9 in
    let config = { Config.default with Config.record_accesses } in
    let sys = System.create ~seed:1 ~jitter:0.0 ~topology ~config () in
    let r = System.replica sys 0 in
    for i = 1 to accesses do
      Engine.at (System.engine sys) ~time:(float_of_int i *. 0.001) (fun () ->
          if i mod 2 = 1 then
            Replica.submit_write r ~deps:[]
              ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
              ~op:(Op.Add ("x", 1.0)) ~k:ignore
          else Replica.submit_read r ~deps:[] ~f:(fun db -> Db.get db "x") ~k:ignore)
    done;
    let w0 = Gc.minor_words () in
    let (), s = time (fun () -> System.run sys) in
    let words = Gc.minor_words () -. w0 in
    assert (Wlog.committed_count (Replica.log r) = 0);
    assert (List.length (Replica.records r) = if record_accesses then accesses else 0);
    (s, words)
  in
  let _, off = run false in
  let s, on = run true in
  (s, [ ("capture_words", int_of_float ((on -. off) /. float_of_int accesses)) ])

(* ------------------------------------------------------------------ *)
(* codec                                                               *)

(* Encode-path allocations per sync round: 24-write round payloads pushed
   through the naive path — a fresh buffer per write, as the per-write sync
   mode would serialise — or the reusable [Codec.Frame] arena, one buffer
   for the whole run and one [contents] handoff per round.  Allocations are
   counted directly: one per [write_to_string] call on the naive path,
   [Frame.allocations] (initial + growths, amortised zero) on the arena
   path. *)
let round_encode ~arena writes =
  let per_round = 24 in
  let rounds = writes / per_round in
  let round r =
    List.init per_round (fun i ->
        let seq = (r * per_round) + i + 1 in
        bench_write ~origin:0 ~seq ~t:(0.001 *. float_of_int seq))
  in
  let sink = ref 0 in
  let frame = Codec.Frame.create () in
  let allocs, s =
    time (fun () ->
        if arena then begin
          for r = 0 to rounds - 1 do
            Codec.Frame.clear frame;
            List.iter (Codec.encode_write frame) (round r);
            sink := !sink + String.length (Codec.Frame.contents frame)
          done;
          Codec.Frame.allocations frame
        end
        else begin
          let allocs = ref 0 in
          for r = 0 to rounds - 1 do
            List.iter
              (fun w ->
                incr allocs;
                sink := !sink + String.length (Codec.write_to_string w))
              (round r)
          done;
          !allocs
        end)
  in
  assert (!sink > 0);
  (s, [ ("rounds", rounds); ("per_round", per_round); ("allocs", allocs) ])

(* ------------------------------------------------------------------ *)
(* protocol                                                            *)

(* Definitional (LCP) order error and conit value over a [writes]-write
   history from three origins. *)
let metrics_lcp writes =
  let ws =
    List.init writes (fun i ->
        Write.make
          ~id:{ origin = i mod 3; seq = (i / 3) + 1 }
          ~accept_time:(float_of_int i) ~op:Op.Noop
          ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ])
  in
  assert (Tact_core.Metrics.order_error_lcp ~ecg:ws ~local:ws "c" = 0.0);
  assert (Tact_core.Metrics.value ws "c" = float_of_int writes)

(* [n] copy/merge/dominate rounds over 16-entry version vectors. *)
let version_vector_merge n =
  let a = Version_vector.create 16 and b = Version_vector.create 16 in
  for i = 0 to 15 do
    Version_vector.set a i (i * 3);
    Version_vector.set b i (48 - (i * 3))
  done;
  for _ = 1 to n do
    let c = Version_vector.copy a in
    Version_vector.merge_into c b;
    assert (Version_vector.dominates c a)
  done

(* [n] adaptive NE-budget share computations over four replicas. *)
let budget_share n =
  let rates = [| 5.0; 1.0; 0.5; 2.0 |] in
  for i = 0 to n - 1 do
    let share =
      Tact_protocols.Budget.share Tact_protocols.Budget.Adaptive ~bound:10.0 ~n:4
        ~self:(1 + (i mod 3)) ~receiver:0 ~rates
    in
    assert (share >= 0.0 && share <= 10.0)
  done

(* [n] one-id CSN slices offered in order, then the outbound tail read. *)
let csn_buffer_offer n =
  let b = Tact_protocols.Csn_buffer.create () in
  for i = 0 to n - 1 do
    ignore (Tact_protocols.Csn_buffer.offer b ~start:i [ { Write.origin = 0; seq = i + 1 } ])
  done;
  assert (List.length (Tact_protocols.Csn_buffer.slice_from b (n - 100)) = 100)

(* ------------------------------------------------------------------ *)
(* system                                                              *)

(* End-to-end served-access throughput: a 2-replica system under a
   read-mostly open-loop workload with weak bounds, stability commitment and
   fast gossip, so the committed prefix grows throughout the run.  Measures
   the whole serve path: admission, observation capture, commit progress. *)
let serve accesses =
  let open Tact_sim in
  let open Tact_replica in
  let topology = Topology.uniform ~n:2 ~latency:0.005 ~bandwidth:1e9 in
  let config =
    {
      Config.default with
      Config.conits = [ Tact_core.Conit.declare "c" ];
      antientropy_period = Some 0.05;
    }
  in
  let sys = System.create ~seed:1 ~jitter:0.0 ~topology ~config () in
  let engine = System.engine sys in
  let served = ref 0 in
  let dt = 0.01 in
  for i = 0 to accesses - 1 do
    let r = System.replica sys (i mod 2) in
    Engine.at engine ~time:(float_of_int i *. dt) (fun () ->
        if i mod 4 = 0 then
          Replica.submit_write r ~deps:[]
            ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
            ~op:(Op.Add ("x", 1.0))
            ~k:(fun _ -> incr served)
        else
          Replica.submit_read r ~deps:[]
            ~f:(fun db -> Db.get db "x")
            ~k:(fun _ -> incr served))
  done;
  System.run ~until:((float_of_int accesses *. dt) +. 60.0) sys;
  assert (!served = accesses);
  assert (System.converged sys)

(* End-to-end traffic under one sync mode: a tight NE bound (every write
   overruns it, so every write triggers a push to every peer) fed by a
   millisecond-spaced train of [writes] writes.  Per-write mode ships one
   Transfer per trigger; batched mode coalesces everything inside a flush
   window into one frame per peer.  The run must converge. *)
let sync_traffic ~sync writes =
  let open Tact_sim in
  let open Tact_replica in
  let topology = Topology.uniform ~n:4 ~latency:0.02 ~bandwidth:1e8 in
  let config =
    {
      Config.default with
      Config.conits = [ Tact_core.Conit.declare ~ne_bound:1.0 "c" ];
      antientropy_period = Some 1.0;
      sync;
      batch_flush = 0.05;
    }
  in
  let sys = System.create ~seed:6 ~jitter:0.02 ~topology ~config () in
  let engine = System.engine sys in
  for k = 1 to writes do
    Engine.schedule engine ~delay:(0.001 *. float_of_int k) (fun () ->
        Replica.submit_write (System.replica sys 0) ~deps:[]
          ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add ("x", 1.0))
          ~k:ignore)
  done;
  let (), s =
    time (fun () -> System.run ~until:((0.001 *. float_of_int writes) +. 10.0) sys)
  in
  assert (System.converged sys);
  let tr = System.traffic sys in
  ( s,
    [ ("messages", tr.Net.messages); ("bytes", tr.Net.bytes);
      ("batches", (System.total_stats sys).Replica.batches);
      ("max_frame", tr.Net.max_message) ] )

(* The budget window on the paper's WAN: 2 LAN clusters of 2 behind an
   80 ms WAN, four conits with NE bound 8, bounded log.  One chained
   generator issues [writes] budgeted writes at 100/s across the replicas,
   then the system quiesces.  [live_words] is the process's live heap
   afterwards, the system still reachable: the logs are held to the
   truncation horizon and each replica keeps only its unconfirmed budgeted
   writes, so the count stays flat as [writes] doubles. *)
let budget_window writes =
  let open Tact_sim in
  let open Tact_replica in
  let topology =
    Topology.clustered ~clusters:2 ~per_cluster:2 ~local:0.002 ~wan:0.08
      ~bandwidth:500_000.0
  in
  let conit i = Printf.sprintf "c%d" i in
  let config =
    {
      Config.default with
      Config.conits = List.init 4 (fun i -> Tact_core.Conit.declare ~ne_bound:8.0 (conit i));
      antientropy_period = Some 1.0;
      truncate_keep = Some 500;
      record_accesses = false;
      bounded_log = true;
    }
  in
  let sys = System.create ~seed:16 ~track_writes:false ~topology ~config () in
  let engine = System.engine sys in
  let rate = 100.0 in
  let returned = ref 0 in
  let rec next k () =
    if k < writes then begin
      Replica.submit_write (System.replica sys (k mod 4)) ~deps:[]
        ~affects:[ { Write.conit = conit (k / 4 mod 4); nweight = 1.0; oweight = 1.0 } ]
        ~op:(Op.Add ("x", 1.0))
        ~k:(fun _ -> incr returned);
      Engine.schedule engine ~delay:(1.0 /. rate) (next (k + 1))
    end
  in
  Engine.schedule engine ~delay:(1.0 /. rate) (next 0);
  let (), s =
    time (fun () -> System.run ~until:((float_of_int writes /. rate) +. 20.0) sys)
  in
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  assert (!returned = writes);
  assert (System.converged sys);
  (s, [ ("live_words", live) ])

(* The write log under relay load, in E22's ring configuration: 24
   replicas on a gossip ring, batched sync, truncation horizon 500, bounded
   log, no access records.  Replica 0 accepts [writes] weak writes, one per
   millisecond, and the system runs until every replica has inserted,
   committed and truncated all of them, so the time is dominated by the
   per-write path of 24 write logs.  [messages] and [bytes] are the ring's
   traffic, [minor_words_per_write] is the allocation per write over the
   whole run; [live_words] is the live heap afterwards, the system still
   reachable. *)
let ring_relay writes =
  let open Tact_sim in
  let open Tact_replica in
  let n = 24 in
  let topology = Topology.uniform ~n ~latency:0.02 ~bandwidth:1e9 in
  let config =
    {
      Config.default with
      Config.antientropy_period = Some 0.1;
      truncate_keep = Some 500;
      sync = Config.Batched;
      batch_flush = 0.05;
      record_accesses = false;
      bounded_log = true;
      gossip_plan = Some (fun i -> [| (i + 1) mod n |]);
    }
  in
  let sys = System.create ~seed:22 ~jitter:0.02 ~track_writes:false ~topology ~config () in
  let engine = System.engine sys in
  let head = System.replica sys 0 in
  let returned = ref 0 in
  for k = 1 to writes do
    Engine.at engine ~time:(float_of_int k *. 0.001) (fun () ->
        Replica.submit_write head ~deps:[]
          ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add ("x" ^ string_of_int (k mod 64), 1.0))
          ~k:(fun _ -> incr returned))
  done;
  let minor0 = (Gc.quick_stat ()).Gc.minor_words in
  let (), s =
    time (fun () -> System.run ~until:((float_of_int writes *. 0.001) +. 20.0) sys)
  in
  let minor = (Gc.quick_stat ()).Gc.minor_words -. minor0 in
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  assert (!returned = writes);
  assert (System.converged sys);
  for i = 0 to n - 1 do
    assert (Wlog.committed_count (Replica.log (System.replica sys i)) = writes)
  done;
  let traffic = System.traffic sys in
  (s, [ ("messages", traffic.Net.messages); ("bytes", traffic.Net.bytes);
        ("minor_words_per_write", int_of_float (minor /. float_of_int writes));
        ("live_words", live) ])

(* Parked accesses on the paper's WAN leave nothing behind once served:
   2 LAN clusters of 2 behind an 80 ms WAN.  One chained generator issues
   [reads] strict reads at 1,000/s across the replicas, each carrying a 30 s
   deadline, and the run stops once all are served, before the first
   deadline passes.  [live_words] is the process's live heap then, the
   system still reachable: an access served in time keeps no timer, so the
   count stays flat as [reads] doubles. *)
let parked_deadline_words reads =
  let open Tact_sim in
  let open Tact_replica in
  let topology =
    Topology.clustered ~clusters:2 ~per_cluster:2 ~local:0.002 ~wan:0.08
      ~bandwidth:500_000.0
  in
  let config =
    {
      Config.default with
      Config.conits = [ Tact_core.Conit.declare "c" ];
      record_accesses = false;
    }
  in
  let sys = System.create ~seed:21 ~track_writes:false ~topology ~config () in
  let engine = System.engine sys in
  let rate = 1_000.0 in
  let served = ref 0 in
  let rec next k () =
    if k < reads then begin
      Replica.submit_read (System.replica sys (k mod 4))
        ~deadline:(Engine.now engine +. 30.0)
        ~deps:[ ("c", Tact_core.Bounds.strong) ]
        ~f:(fun db -> Db.get db "x")
        ~k:(fun _ -> incr served);
      Engine.schedule engine ~delay:(1.0 /. rate) (next (k + 1))
    end
  in
  Engine.schedule engine ~delay:(1.0 /. rate) (next 0);
  let horizon = (float_of_int reads /. rate) +. 5.0 in
  assert (horizon < 30.0);
  let (), s = time (fun () -> System.run ~until:horizon sys) in
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  assert (!served = reads);
  assert ((System.total_stats sys).Replica.timeouts = 0);
  (s, [ ("live_words", live) ])

(* The sim-wan shape of the repo benchmark: 2 LAN clusters of 2 behind an
   80 ms WAN, four conits with declared NE bound 8, gossip every second,
   stability commitment and a bounded log.  [accesses] arrive as one seeded
   Poisson stream of 200/s, each at a random replica: half are writes of
   weight 1 on one conit (budgeted by its NE bound), half are reads bounding
   it at NE 1, OE 2 and ST 0.5, which park and are re-checked on every
   message until a pull round and commitment clear them.  Counts: the
   network's messages and bytes, and minor-heap words per access. *)
let wan_mix accesses =
  let open Tact_sim in
  let open Tact_replica in
  let topology =
    Topology.clustered ~clusters:2 ~per_cluster:2 ~local:0.002 ~wan:0.08
      ~bandwidth:500_000.0
  in
  let conit i = "c" ^ string_of_int i in
  let config =
    {
      Config.default with
      Config.conits = List.init 4 (fun i -> Tact_core.Conit.declare ~ne_bound:8.0 (conit i));
      antientropy_period = Some 1.0;
      truncate_keep = Some 4000;
      record_accesses = false;
      bounded_log = true;
    }
  in
  let sys = System.create ~seed:26 ~track_writes:false ~topology ~config () in
  let engine = System.engine sys in
  let rng = Tact_util.Prng.create ~seed:26 in
  let bound = Tact_core.Bounds.make ~ne:1.0 ~oe:2.0 ~st:0.5 () in
  let served = ref 0 and at = ref 0.0 in
  for _ = 1 to accesses do
    at := !at +. Tact_util.Prng.exponential rng ~mean:(1.0 /. 200.0);
    let r = System.replica sys (Tact_util.Prng.int rng 4) in
    let c = conit (Tact_util.Prng.int rng 4) in
    let deadline = !at +. 30.0 in
    Engine.at engine ~time:!at
      (if Tact_util.Prng.bool rng then fun () ->
         Replica.submit_write r ~deadline ~deps:[]
           ~affects:[ { Write.conit = c; nweight = 1.0; oweight = 1.0 } ]
           ~op:(Op.Add (c, 1.0))
           ~k:(fun _ -> incr served)
       else fun () ->
         Replica.submit_read r ~deadline ~deps:[ (c, bound) ]
           ~f:(fun db -> Db.get db c)
           ~k:(fun _ -> incr served))
  done;
  let minor0 = Gc.minor_words () in
  let (), s = time (fun () -> System.run ~until:(!at +. 30.0) sys) in
  let minor = Gc.minor_words () -. minor0 in
  assert (!served = accesses);
  let traffic = System.traffic sys in
  (s, [ ("messages", traffic.Net.messages); ("bytes", traffic.Net.bytes);
        ("minor_words_per_op", int_of_float (minor /. float_of_int accesses)) ])

(* The sharded workload: [shards] shards over [n] replicas, conits pinned
   round-robin, [total] writes spread millisecond-spaced across the shards,
   batched sync.  Building is deterministic, so two instances run at
   different job counts must produce byte-identical digests. *)
let sharded_workload ~n ~shards ~overlap ~total =
  let open Tact_sim in
  let open Tact_replica in
  let nconits = 2 * shards in
  let conit_name k = Printf.sprintf "c%02d" k in
  let router =
    Shard.with_table (Shard.by_hash ~shards)
      (List.init nconits (fun k -> (conit_name k, k mod shards)))
  in
  let interest r =
    List.init overlap (fun i -> (r + i) mod shards) |> List.sort_uniq Int.compare
  in
  let config =
    {
      Config.default with
      Config.antientropy_period = Some 0.5;
      sync = Config.Batched;
      batch_flush = 0.05;
      record_accesses = false;
      shards;
      interest = (if overlap >= shards then None else Some interest);
    }
  in
  let topology = Topology.uniform ~n ~latency:0.02 ~bandwidth:1e8 in
  let sh = Sharded.create ~seed:9 ~jitter:0.02 ~router ~topology ~config () in
  for k = 0 to total - 1 do
    let s = k mod shards in
    let conit = conit_name ((k mod nconits / shards * shards) + s) in
    let members = Sharded.members sh s in
    let writer = members.(k mod Array.length members) in
    Engine.at (Sharded.engine sh ~shard:s)
      ~time:(0.001 *. float_of_int (k + 1))
      (fun () ->
        Sharded.submit_write sh ~replica:writer ~deps:[]
          ~affects:[ { Write.conit; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add ("x:" ^ conit, 1.0))
          ~k:ignore)
  done;
  (sh, (0.001 *. float_of_int total) +. 20.0)

(* The same shape, unsharded: the plain-System twin of the 1-shard
   instance, so [shard_overhead_plain] vs [shard_overhead_sharded1] is the
   wrapper's cost when sharding buys nothing. *)
let plain_workload ~n ~total =
  let open Tact_sim in
  let open Tact_replica in
  let config =
    {
      Config.default with
      Config.antientropy_period = Some 0.5;
      sync = Config.Batched;
      batch_flush = 0.05;
      record_accesses = false;
    }
  in
  let topology = Topology.uniform ~n ~latency:0.02 ~bandwidth:1e8 in
  let sys = System.create ~seed:9 ~jitter:0.02 ~topology ~config () in
  for k = 0 to total - 1 do
    let conit = Printf.sprintf "c%02d" (k mod 2) in
    Engine.at (System.engine sys)
      ~time:(0.001 *. float_of_int (k + 1))
      (fun () ->
        Replica.submit_write (System.replica sys (k mod n)) ~deps:[]
          ~affects:[ { Write.conit; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add ("x:" ^ conit, 1.0))
          ~k:ignore)
  done;
  (sys, (0.001 *. float_of_int total) +. 20.0)

let shard_overhead_plain total =
  let sys, horizon = plain_workload ~n:4 ~total in
  let (), s = time (fun () -> Tact_replica.System.run ~until:horizon sys) in
  assert (Tact_replica.System.converged sys);
  (s, [])

let shard_overhead_sharded1 total =
  let open Tact_replica in
  let sh, horizon = sharded_workload ~n:4 ~shards:1 ~overlap:1 ~total in
  let (), s = time (fun () -> Sharded.run ~jobs:1 ~until:horizon sh) in
  assert (Sharded.converged sh);
  (s, [])

(* Shard engines across pool domains: 4 shards over 8 replicas, each
   subscribed to 2.  Speedup needs real cores; on a 1-core host the point of
   the kernel is that the digest is the same at every job count. *)
let shard_scaling ~jobs total =
  let open Tact_replica in
  let sh, horizon = sharded_workload ~n:8 ~shards:4 ~overlap:2 ~total in
  let (), s = time (fun () -> Sharded.run ~jobs ~until:horizon sh) in
  assert (Sharded.converged sh);
  assert (Sharded.shard_leaks sh = []);
  ((s, []), Sharded.digest sh)

(* [n] events through the simulation engine's timer queue. *)
let sim_engine_events n =
  let open Tact_sim in
  let e = Engine.create () in
  let fired = ref 0 in
  let fire () = incr fired in
  for i = 1 to n do
    Engine.schedule e ~delay:(float_of_int (i mod 97)) fire
  done;
  Engine.run e;
  assert (!fired = n)

(* A bulletin-board simulation of [seconds] virtual seconds: 3 replicas,
   Poisson posts and reads, NE bound 4, no anti-entropy. *)
let bboard_sim seconds =
  let r, s =
    time (fun () ->
        Tact_apps.Bboard.run ~seed:3 ~n:3 ~post_rate:2.0 ~read_rate:1.0
          ~duration:(float_of_int seconds) ~ne_bound:4.0 ~antientropy:None ())
  in
  assert (r.Tact_apps.Bboard.violations = 0);
  (s, [ ("messages", r.messages); ("bytes", r.bytes) ])

(* ------------------------------------------------------------------ *)
(* transport                                                           *)

let fresh_loopback_ports n =
  let fds =
    List.init n (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        fd)
  in
  let ports =
    List.map
      (fun fd ->
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false)
      fds
  in
  List.iter Unix.close fds;
  ports

(* Wall-clock throughput of the real-socket backend: two
   {!Tact_transport.Tcp} instances on one event loop, loopback TCP, [frames]
   payloads of [size] bytes pushed 0 -> 1 with a bounded in-flight window
   while the loop pumps.  Measures the full framed path — enqueue, 4-byte
   length prefix, nonblocking writes, accept-side reassembly, per-frame
   delivery. *)
let transport ~size frames =
  let module L = Tact_transport.Loop in
  let module Tcp = Tact_transport.Tcp in
  let loop = L.create () in
  let addrs =
    fresh_loopback_ports 2
    |> List.map (fun p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p))
    |> Array.of_list
  in
  let knobs =
    {
      Tact_replica.Config.default_transport with
      Tact_replica.Config.backoff_base = 0.005;
      half_open_after = 60.0;
    }
  in
  let mk self =
    Tcp.create ~loop ~self ~addrs ~knobs ~rng:(Tact_util.Prng.create ~seed:(40 + self)) ()
  in
  let t0 = mk 0 and t1 = mk 1 in
  let got = ref 0 in
  Tcp.set_handler t1 (fun ~src:_ payload ->
      if String.length payload = size then incr got);
  Tcp.listen t0 ~addr:addrs.(0);
  Tcp.listen t1 ~addr:addrs.(1);
  let setup_deadline = Unix.gettimeofday () +. 10.0 in
  while not (Tcp.peer_up t0 1) && Unix.gettimeofday () < setup_deadline do
    ignore (L.run_once ~max_wait:0.01 loop)
  done;
  assert (Tcp.peer_up t0 1);
  let payload = String.make size 'x' in
  let deadline = Unix.gettimeofday () +. 60.0 in
  let sent = ref 0 in
  let (), s =
    time (fun () ->
        while !got < frames && Unix.gettimeofday () < deadline do
          (* A bounded window keeps the socket pipeline full without letting
             the outbound buffer balloon past what the kernel will absorb. *)
          while !sent < frames && !sent - !got < 64 do
            (match Tcp.send t0 ~dst:1 payload with Ok () -> () | Error _ -> ());
            incr sent
          done;
          ignore (L.run_once ~max_wait:0.01 loop)
        done)
  in
  assert (!got = frames);
  Tcp.close t0;
  Tcp.close t1;
  (s, [])

(* ------------------------------------------------------------------ *)
(* check                                                               *)

(* Nemesis fault campaign: [runs] seeded fault-injected simulations back to
   back — plan sampling, fault-schedule install, full run, O1-O6 oracle
   sweep.  A clean-seed campaign must pass everywhere; the digest length
   check guards the jobs-invariance witness itself. *)
let nemesis_campaign runs =
  let open Tact_check in
  let summary = Campaign.run { Campaign.default with Campaign.master_seed = 7; runs } in
  assert (summary.Campaign.completed = runs);
  assert (summary.Campaign.failures = []);
  assert (String.length summary.Campaign.digest = 16)

(* Parallel schedule exploration: the checker's weak-converge scenario with
   reductions off (every interleaving executes) at [preemptions] deviations
   per schedule.  The verdict and schedule count are the same at any job
   count — only the wall clock may differ, and only on a multicore host. *)
let pool_scaling ~jobs preemptions =
  let sc =
    match Tact_check.Scenario.find "weak-converge" with
    | Some s -> s
    | None -> assert false
  in
  let options =
    { Tact_check.Explorer.default_options with
      preemptions; dedup = false; prune = false; max_schedules = 0 }
  in
  let o, s = time (fun () -> Tact_check.Explorer.explore ~options ~jobs sc) in
  assert (o.counterexample = None);
  let schedules = o.stats.schedules in
  ((s, [ ("schedules", schedules) ]), string_of_int schedules)

(* ------------------------------------------------------------------ *)
(* The table                                                           *)

(* One entry per job count, named [<name>_j<jobs>].  Each run returns its
   measurement and a witness (a digest, a schedule count); every witness
   must equal the first one measured at the same size. *)
let sweep ?(gated = []) ~name ~layer ~full ~smoke ~jobs f =
  let first = ref [] in
  List.map
    (fun j ->
      let run n =
        let m, witness = f ~jobs:j n in
        (match List.assoc_opt n !first with
        | None -> first := (n, witness) :: !first
        | Some w -> assert (String.equal w witness));
        m
      in
      { name = Printf.sprintf "%s_j%d" name j; layer; full; smoke; run; gated })
    jobs

(* Gated counts.  Message, byte, batch, frame-size and schedule counts come
   from seeded runs and must match exactly.  Minor-heap words per operation
   differ by a few words between runs of one build and are allowed 5%.
   Whole live-heap counts stay informative: an offset of about 800 words in
   [parked_deadline_words] is not yet explained.  Live words per held write
   divide such an offset by thousands of writes, and are allowed 10%. *)
let traffic = [ ("messages", 0.0); ("bytes", 0.0) ]
let batched = traffic @ [ ("batches", 0.0); ("max_frame", 0.0) ]
let words c = [ (c, 0.05) ]
let live c = [ (c, 0.1) ]

let kernels ~jobs =
  let k ?(gated = []) name layer full smoke run = { name; layer; full; smoke; run; gated } in
  [
    k "round_encode_naive" Codec 48_000 480 (round_encode ~arena:false);
    k "round_encode_arena" Codec 48_000 480 (round_encode ~arena:true);
    k "wlog_accept_commit" Wlog 10_000 256 (timed accept_commit);
    k "wlog_accept_commit" Wlog 30_000 512 (timed accept_commit);
    k "wlog_insert_storm" Wlog 10_000 512 (timed insert_storm);
    k "wlog_insert_storm" Wlog 30_000 1_024 (timed insert_storm);
    k "wlog_accept_stable" Wlog 50_000 500 (timed accept_stable);
    k "wlog_writes_since" Wlog 30_000 2_048 (writes_since ~reference:false);
    k "wlog_writes_since_reference" Wlog 30_000 2_048 (writes_since ~reference:true);
    k "wlog_index_delivery" Wlog 64_000 2_048 index_delivery;
    k "wlog_index_flat" Wlog 64_000 2_048 index_flat;
    k "wlog_index_hashtbl" Wlog 64_000 2_048 index_hashtbl;
    k ~gated:(words "capture_words") "observe_capture" Wlog 4_000 200 observe_capture;
    k ~gated:(live "words_per_write" @ live "retained_words_per_write") "log_live_words" Wlog
      2_000 200 log_live_words;
    k ~gated:(words "minor_words_per_drop") "wlog_truncate" Wlog 20_000 500 truncate_steps;
    k "metrics_lcp" Protocol 100_000 300 (timed metrics_lcp);
    k "version_vector_merge" Protocol 200_000 1_000 (timed version_vector_merge);
    k "budget_share" Protocol 1_000_000 3_000 (timed budget_share);
    k "csn_buffer_offer" Protocol 100_000 1_000 (timed csn_buffer_offer);
    k "replica_serve" System 10_000 100 (timed serve);
    k ~gated:batched "sync_traffic_per_write" System 600 40
      (sync_traffic ~sync:Tact_replica.Config.Per_write);
    k ~gated:batched "sync_traffic_batched" System 600 40
      (sync_traffic ~sync:Tact_replica.Config.Batched);
    k "budget_window" System 20_000 400 budget_window;
    k "budget_window" System 40_000 800 budget_window;
    k ~gated:(traffic @ words "minor_words_per_write") "ring_relay" System 20_000 500
      ring_relay;
    k "parked_deadline_words" System 10_000 200 parked_deadline_words;
    k "parked_deadline_words" System 20_000 400 parked_deadline_words;
    k ~gated:(traffic @ words "minor_words_per_op") "wan_mix" System 20_000 500 wan_mix;
    k "shard_overhead_plain" System 4_000 200 shard_overhead_plain;
    k "shard_overhead_sharded1" System 4_000 200 shard_overhead_sharded1;
  ]
  @ sweep ~name:"shard_scaling" ~layer:System ~full:6_000 ~smoke:200 ~jobs shard_scaling
  @ [
      k "sim_engine_events" System 200_000 10_000 (timed sim_engine_events);
      k ~gated:traffic "bboard_sim" System 60 5 bboard_sim;
      k "transport_frames_256B" Transport 20_000 64 (transport ~size:256);
      k "transport_frames_64KiB" Transport 2_000 8 (transport ~size:65_536);
      k "nemesis_campaign" Check 500 10 (timed nemesis_campaign);
    ]
  @ sweep ~gated:[ ("schedules", 0.0) ] ~name:"pool_scaling" ~layer:Check ~full:3 ~smoke:1
      ~jobs pool_scaling

(* ------------------------------------------------------------------ *)
(* The report: one schema, one writer, one reader                      *)

type row = {
  r_name : string;
  r_layer : string;
  r_n : int;
  r_seconds : float;
  r_counts : (string * int) list;
  r_gated : (string * float) list;
}

type report = {
  cores : int option;  (* None in files that predate the field *)
  ocaml_version : string option;
  rows : row list;
}

let print_row r =
  Printf.printf "%-9s %-28s n=%-8d %10.6f s%s\n%!" r.r_layer r.r_name r.r_n r.r_seconds
    (String.concat ""
       (List.map (fun (c, v) -> Printf.sprintf "  %s=%d" c v) r.r_counts))

(* Run every kernel, one at a time, at its full or smoke size.  Each starts
   from a collected heap, so no kernel pays for the garbage of the ones
   before it. *)
let measure ~smoke kernels =
  let rows =
    List.map
      (fun k ->
        let n = if smoke then k.smoke else k.full in
        Gc.full_major ();
        let r_seconds, r_counts = k.run n in
        let r =
          { r_name = k.name; r_layer = List.assoc k.layer layer_names; r_n = n;
            r_seconds; r_counts; r_gated = k.gated }
        in
        print_row r;
        r)
      kernels
  in
  { cores = Some (Domain.recommended_domain_count ());
    ocaml_version = Some Sys.ocaml_version; rows }

let to_json rep =
  let open Tact_util.Json in
  let int i = Num (float_of_int i) in
  let opt f = function Some x -> f x | None -> Null in
  let row r =
    Obj
      ([ ("name", Str r.r_name); ("layer", Str r.r_layer); ("n", int r.r_n);
         ("seconds", Num r.r_seconds) ]
      @
      (if r.r_counts = [] then []
       else [ ("counts", Obj (List.map (fun (c, v) -> (c, int v)) r.r_counts)) ])
      @
      if r.r_gated = [] then []
      else [ ("gated", Obj (List.map (fun (c, tol) -> (c, Num tol)) r.r_gated)) ])
  in
  Obj
    [ ("cores", opt int rep.cores);
      ("ocaml_version", opt (fun s -> Str s) rep.ocaml_version);
      ("kernels", Arr (List.map row rep.rows)) ]

exception Schema of string

let of_json j =
  let open Tact_util.Json in
  let get key conv v =
    match Option.bind (member key v) conv with
    | Some x -> x
    | None -> raise (Schema (Printf.sprintf "missing or ill-typed %S" key))
  in
  let nullable key conv =
    match member key j with
    | Some Null -> None
    | _ -> Some (get key conv j)
  in
  let layer v =
    Option.bind (to_str v) (fun l ->
        if List.exists (fun (_, name) -> String.equal name l) layer_names then Some l
        else None)
  in
  (* An optional object of numbers, [[]] when absent. *)
  let numbers key conv ~what v =
    match member key v with
    | None -> []
    | Some (Obj kvs) ->
      List.map
        (fun (c, x) ->
          match conv x with
          | Some i -> (c, i)
          | None -> raise (Schema (Printf.sprintf "%s %S is not %s" key c what)))
        kvs
    | Some _ -> raise (Schema (key ^ " is not an object"))
  in
  let tolerance x =
    Option.bind (to_float x) (fun f -> if f >= 0.0 then Some f else None)
  in
  let row v =
    { r_name = get "name" to_str v; r_layer = get "layer" layer v; r_n = get "n" to_int v;
      r_seconds = get "seconds" to_float v;
      r_counts = numbers "counts" to_int ~what:"an integer" v;
      r_gated = numbers "gated" tolerance ~what:"a non-negative tolerance" v }
  in
  { cores = nullable "cores" to_int;
    ocaml_version = nullable "ocaml_version" to_str;
    rows = List.map row (get "kernels" to_list j) }

let save path rep =
  let oc = open_out_bin path in
  output_string oc (Tact_util.Json.to_string (to_json rep) ^ "\n");
  close_out oc

let load path =
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Tact_util.Json.parse src with
  | Error e -> raise (Schema e)
  | Ok j -> of_json j

(* The row of [rows] measuring the same kernel at the same size. *)
let pair rows r =
  List.find_opt (fun x -> String.equal x.r_name r.r_name && x.r_n = r.r_n) rows

(* The counts gated in [y] that moved from [x] by more than their
   tolerance, described.  A count [x] does not carry is not compared. *)
let gate_failures x y =
  List.filter_map
    (fun (c, tol) ->
      match (List.assoc_opt c x.r_counts, List.assoc_opt c y.r_counts) with
      | Some v, Some w
        when Float.abs (float_of_int (w - v)) > tol *. Float.abs (float_of_int v) ->
        Some (Printf.sprintf "%s n=%d: gated count %s moved %d -> %d (tolerance %g%%)"
                y.r_name y.r_n c v w (100.0 *. tol))
      | Some _, (Some _ | None) | None, _ -> None)
    y.r_gated

let compare_files a b =
  let ra = load a and rb = load b in
  let cores r = match r.cores with Some c -> string_of_int c | None -> "?" in
  Printf.printf "A = %s (cores %s), B = %s (cores %s)\n" a (cores ra) b (cores rb);
  Printf.printf "%-28s %8s %11s %11s %8s\n" "kernel" "n" "A" "B" "A/B";
  Printf.printf "%s\n" (String.make 70 '-');
  let counts x y =
    (* counts that differ between the two runs *)
    List.filter_map
      (fun (c, v) ->
        match List.assoc_opt c y.r_counts with
        | Some w when w <> v -> Some (Printf.sprintf "  %s %d->%d" c v w)
        | _ -> None)
      x.r_counts
    |> String.concat ""
  in
  List.iter
    (fun x ->
      match pair rb.rows x with
      | Some y ->
        Printf.printf "%-28s %8d %9.6f s %9.6f s %7.2fx%s\n" x.r_name x.r_n x.r_seconds
          y.r_seconds
          (x.r_seconds /. Float.max y.r_seconds 1e-9)
          (counts x y)
      | None ->
        Printf.printf "%-28s %8d %9.6f s %11s\n" x.r_name x.r_n x.r_seconds "(missing)")
    ra.rows;
  List.iter
    (fun y ->
      if pair ra.rows y = None then
        Printf.printf "%-28s %8d %11s %9.6f s\n" y.r_name y.r_n "(missing)" y.r_seconds)
    rb.rows;
  let failures =
    List.concat_map
      (fun y -> match pair ra.rows y with Some x -> gate_failures x y | None -> [])
      rb.rows
  in
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) failures;
  if failures <> [] then exit 1

(* The smoke report goes through the one writer and the one reader, and
   every (name, n) must pair with itself — with at least one name measured
   at two sizes, so pairing on the name alone would fail. *)
let self_check rep =
  let path = Filename.temp_file "bench" ".json" in
  save path rep;
  let back = load path in
  Sys.remove path;
  assert (back.cores = rep.cores && back.ocaml_version = rep.ocaml_version);
  assert (List.length back.rows = List.length rep.rows);
  List.iter (fun r -> assert (pair back.rows r = Some r)) rep.rows;
  assert (
    List.exists
      (fun r -> List.exists (fun x -> x.r_name = r.r_name && x.r_n <> r.r_n) rep.rows)
      rep.rows)

let usage () =
  prerr_endline
    "usage: main.exe --smoke [-j N]\n\
    \       main.exe --json [--out=FILE] [-j N]\n\
    \       main.exe --compare A.json B.json\n\
     -j N sweeps pool_scaling and shard_scaling at 1 and N domains, the\n\
     calling one included (default: 1, 2 and 4)\n\
     (the paper experiments: tact all [--full] [-j N], tact exp <id>)";
  exit 2

let () =
  let rec split_jobs jobs acc = function
    | "-j" :: v :: rest -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> split_jobs (Some j) acc rest
      | _ -> usage ())
    | a :: rest -> split_jobs jobs (a :: acc) rest
    | [] -> (jobs, List.rev acc)
  in
  let jobs, args = split_jobs None [] (List.tl (Array.to_list Sys.argv)) in
  let jobs =
    match jobs with None -> [ 1; 2; 4 ] | Some j -> List.sort_uniq Int.compare [ 1; j ]
  in
  try
    match args with
    | [ "--smoke" ] ->
      self_check (measure ~smoke:true (kernels ~jobs));
      print_endline "bench smoke ok"
    | "--json" :: rest ->
      let out =
        match rest with
        | [] -> "bench.json"
        | [ o ] when String.starts_with ~prefix:"--out=" o ->
          String.sub o 6 (String.length o - 6)
        | _ -> usage ()
      in
      let rep = measure ~smoke:false (kernels ~jobs) in
      save out rep;
      Printf.printf "wrote %s (cores=%s, ocaml %s)\n" out
        (match rep.cores with Some c -> string_of_int c | None -> "?")
        Sys.ocaml_version
    | [ "--compare"; a; b ] -> compare_files a b
    | _ -> usage ()
  with Schema e ->
    prerr_endline ("bench: " ^ e);
    exit 2
