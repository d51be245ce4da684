(* Batched anti-entropy: the Frame allocator, the Batch wire codec (delta and
   snapshot-fallback payloads), and the differential guarantee that Batched
   sync is observationally identical to Per_write — same final databases and
   same oracle verdicts, including under nemesis loss and duplication. *)

open Tact_sim
open Tact_store
open Tact_replica

let unit_w conit = { Write.conit; nweight = 1.0; oweight = 1.0 }

let mk ~origin ~seq ~t =
  Write.make ~id:{ origin; seq } ~accept_time:t
    ~op:(Op.Add ("x", 1.0))
    ~affects:[ unit_w "c" ]

(* --- Frame allocator --------------------------------------------------- *)

let test_frame_reserve () =
  let f = Codec.Frame.create ~initial:16 () in
  Alcotest.(check int) "fresh length" 0 (Codec.Frame.length f);
  Alcotest.(check int) "one allocation at birth" 1 (Codec.Frame.allocations f);
  let o1 = Codec.Frame.reserve f 4 in
  let o2 = Codec.Frame.reserve f 8 in
  Alcotest.(check int) "first offset" 0 o1;
  Alcotest.(check int) "offsets are sequential" 4 o2;
  Alcotest.(check int) "length tracks reserves" 12 (Codec.Frame.length f);
  Alcotest.(check int) "no growth within capacity" 1 (Codec.Frame.allocations f)

let test_frame_growth_and_reuse () =
  let f = Codec.Frame.create ~initial:8 () in
  ignore (Codec.Frame.reserve f 20);
  Alcotest.(check bool) "arena grew" true (Codec.Frame.capacity f >= 20);
  Alcotest.(check int) "growth counted" 2 (Codec.Frame.allocations f);
  let cap = Codec.Frame.capacity f in
  Codec.Frame.clear f;
  Alcotest.(check int) "clear resets length" 0 (Codec.Frame.length f);
  Alcotest.(check int) "clear retains capacity" cap (Codec.Frame.capacity f);
  Codec.put_string f "hello";
  Alcotest.(check int) "reuse allocates nothing" 2 (Codec.Frame.allocations f);
  Alcotest.(check string) "contents round-trip" "hello"
    (Codec.get_string (Codec.cursor (Codec.Frame.contents f)))

let test_frame_preallocate () =
  let f = Codec.Frame.create ~initial:8 () in
  Codec.Frame.preallocate f 1024;
  Alcotest.(check int) "length unchanged" 0 (Codec.Frame.length f);
  Alcotest.(check int) "one growth for the whole batch" 2
    (Codec.Frame.allocations f);
  for i = 1 to 100 do
    Codec.put_int f i
  done;
  Alcotest.(check int) "puts within preallocation are alloc-free" 2
    (Codec.Frame.allocations f);
  Alcotest.(check int) "all puts landed" 800 (Codec.Frame.length f)

(* --- Batch wire format ------------------------------------------------- *)

let sample_batch ?(kind = Batch.Push) ?(shard = 0) payload =
  let vector = Version_vector.create 3 in
  Version_vector.set vector 0 4;
  Version_vector.set vector 2 7;
  {
    Batch.from = 1;
    shard;
    kind;
    vector;
    cover = [| 1.5; 2.25; 0.0 |];
    csn_start = 2;
    csn = [ { Write.origin = 0; seq = 3 }; { Write.origin = 2; seq = 1 } ];
    rate = 0.75;
    payload;
  }

let check_roundtrip name b =
  let s = Batch.to_string b in
  Alcotest.(check int)
    (name ^ ": byte_size is exact")
    (String.length s) (Batch.byte_size b);
  let b' =
    match Batch.decode s with
    | Ok b' -> b'
    | Error e -> Alcotest.failf "%s: %s" name (Transport.error_to_string e)
  in
  Alcotest.(check int) (name ^ ": from") b.Batch.from b'.Batch.from;
  Alcotest.(check int) (name ^ ": shard") b.Batch.shard b'.Batch.shard;
  Alcotest.(check bool)
    (name ^ ": kind")
    true
    (b.Batch.kind = b'.Batch.kind);
  Alcotest.(check bool)
    (name ^ ": vector")
    true
    (Version_vector.equal b.Batch.vector b'.Batch.vector);
  Alcotest.(check bool)
    (name ^ ": cover")
    true
    (b.Batch.cover = b'.Batch.cover);
  Alcotest.(check int) (name ^ ": csn_start") b.Batch.csn_start b'.Batch.csn_start;
  Alcotest.(check bool) (name ^ ": csn") true (b.Batch.csn = b'.Batch.csn);
  Alcotest.(check bool)
    (name ^ ": rate")
    true
    (Float.equal b.Batch.rate b'.Batch.rate);
  (match (b.Batch.payload, b'.Batch.payload) with
  | Batch.Delta ws, Batch.Delta ws' ->
    Alcotest.(check (list string))
      (name ^ ": delta writes")
      (List.map Codec.write_to_string ws)
      (List.map Codec.write_to_string ws')
  | Batch.Full (snap, ws), Batch.Full (snap', ws') ->
    Alcotest.(check string)
      (name ^ ": snapshot payload")
      (Codec.snapshot_to_string snap)
      (Codec.snapshot_to_string snap');
    Alcotest.(check (list string))
      (name ^ ": retained tail")
      (List.map Codec.write_to_string ws)
      (List.map Codec.write_to_string ws')
  | _ -> Alcotest.fail (name ^ ": payload shape changed"));
  b'

let test_batch_roundtrip_delta () =
  let writes = [ mk ~origin:0 ~seq:4 ~t:1.0; mk ~origin:2 ~seq:7 ~t:2.0 ] in
  let b = sample_batch ~kind:(Batch.Pull_reply 9) ~shard:3 (Batch.Delta writes) in
  ignore (check_roundtrip "delta" b)

(* [byte_size] is the encoded length for every payload shape: an empty and
   a non-empty delta, and a snapshot with and without a retained tail, each
   with and without a CSN slice. *)
let test_batch_sizes_every_shape () =
  let log = Wlog.create ~replicas:3 ~initial:[ ("greet", Value.Str "hi") ] in
  ignore (Wlog.accept log (mk ~origin:0 ~seq:1 ~t:1.0));
  ignore (Wlog.commit_stable log ~cover:[| infinity; infinity; infinity |]);
  let snap = Wlog.snapshot log in
  let tail = [ mk ~origin:2 ~seq:1 ~t:2.0; mk ~origin:2 ~seq:2 ~t:3.0 ] in
  List.iteri
    (fun i payload ->
      let b = sample_batch payload in
      ignore (check_roundtrip (Printf.sprintf "shape %d" i) b);
      ignore
        (check_roundtrip (Printf.sprintf "shape %d, no CSN" i)
           { b with Batch.csn = []; csn_start = 0; kind = Batch.Gossip }))
    [ Batch.Delta []; Batch.Delta tail; Batch.Full (snap, []); Batch.Full (snap, tail) ]

let test_batch_rejects_garbage () =
  let b = sample_batch (Batch.Delta [ mk ~origin:0 ~seq:4 ~t:1.0 ]) in
  let s = Batch.to_string b in
  let rejected name s =
    Alcotest.(check bool) name true
      (match Batch.decode s with Error (Transport.Malformed _) -> true | _ -> false)
  in
  rejected "trailing garbage rejected" (s ^ "x");
  rejected "truncation rejected" (String.sub s 0 (String.length s - 3));
  rejected "bad magic rejected" ("\x00" ^ String.sub s 1 (String.length s - 1))

(* Satellite: the planner falls back to a snapshot frame exactly when the
   peer's vector is below the truncation horizon, and that frame round-trips
   with an exact byte_size. *)
let test_plan_snapshot_fallback () =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  for seq = 1 to 10 do
    ignore (Wlog.accept log (mk ~origin:0 ~seq ~t:(float_of_int seq)))
  done;
  ignore (Wlog.commit_stable log ~cover:[| infinity; infinity |]);
  ignore (Wlog.truncate log ~keep:3);
  (* A peer that has the retained prefix gets a delta... *)
  let current = Version_vector.create 2 in
  Version_vector.set current 0 8;
  Batch.plan ~log ~peer_vector:current (fun payload ->
      match payload with
      | Batch.Delta ws ->
        Alcotest.(check int) "delta carries the gap" 2 (List.length ws)
      | Batch.Full _ -> Alcotest.fail "serveable peer got a snapshot");
  (* ...a peer below the truncation horizon gets the snapshot fallback. *)
  let behind = Version_vector.create 2 in
  Version_vector.set behind 0 2;
  Batch.plan ~log ~peer_vector:behind (fun payload ->
      match payload with
      | Batch.Delta _ -> Alcotest.fail "lagging peer got an unserveable delta"
      | Batch.Full (snap, tail) ->
        Alcotest.(check int) "snapshot covers the committed prefix" 10
          snap.Wlog.snap_ncommitted;
        Alcotest.(check int) "no tail past the snapshot" 0 (List.length tail);
        let b = sample_batch (Batch.Full (snap, tail)) in
        ignore (check_roundtrip "snapshot fallback" b))

(* --- Differential: Batched vs Per_write -------------------------------- *)

let batched c = { c with Config.sync = Config.Batched; batch_flush = 0.02 }

let batched_plan (p : Tact_check.Sample.plan) =
  { p with Tact_check.Sample.config = batched p.Tact_check.Sample.config }

(* The same deterministic workload under both sync modes: identical final
   databases on every replica, with far fewer messages on the wire.  The
   workload is bursty under a tight NE bound, so nearly every write forces
   budget pushes to every peer — the per-write transfer flood that batching
   collapses into one frame per peer per flush window. *)
let run_workload config =
  let topology = Topology.uniform ~n:4 ~latency:0.03 ~bandwidth:1e8 in
  let sys = System.create ~seed:11 ~jitter:0.05 ~topology ~config () in
  let engine = System.engine sys in
  for burst = 0 to 7 do
    for k = 1 to 15 do
      Engine.schedule engine
        ~delay:((0.5 *. float_of_int burst) +. (0.002 *. float_of_int k))
        (fun () ->
          Replica.submit_write
            (System.replica sys (burst mod 4))
            ~deps:[]
            ~affects:[ unit_w "c" ]
            ~op:(Op.Add ("x", float_of_int k))
            ~k:ignore)
    done
  done;
  System.run ~until:30.0 sys;
  Alcotest.(check bool) "run converged" true (System.converged sys);
  sys

let test_differential_clean () =
  let config =
    {
      Config.default with
      Config.conits = [ Tact_core.Conit.declare ~ne_bound:4.0 "c" ];
      Config.antientropy_period = Some 0.4;
    }
  in
  let pw = run_workload config in
  let bt = run_workload (batched config) in
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d database identical" i)
      true
      (Db.equal (Replica.db (System.replica pw i)) (Replica.db (System.replica bt i)))
  done;
  Alcotest.(check int) "same committed count"
    (Wlog.committed_count (Replica.log (System.replica pw 0)))
    (Wlog.committed_count (Replica.log (System.replica bt 0)));
  let spw = System.traffic pw and sbt = System.traffic bt in
  Alcotest.(check bool) "batched sends fewer messages" true
    (sbt.Net.messages < spw.Net.messages);
  Alcotest.(check bool) "batched frames were coalesced" true
    ((System.total_stats bt).Replica.batches > 0);
  Alcotest.(check bool) "peak frame beats peak transfer" true
    (sbt.Net.max_message >= spw.Net.max_message)

(* Under message loss the two modes must still converge to the same state
   (ack-driven re-dirtying recovers dropped frames). *)
let test_differential_lossy () =
  let config =
    { Config.default with Config.antientropy_period = Some 0.4 }
  in
  let run config =
    let topology = Topology.uniform ~n:3 ~latency:0.03 ~bandwidth:1e8 in
    let sys = System.create ~seed:7 ~jitter:0.0 ~loss:0.25 ~topology ~config () in
    let engine = System.engine sys in
    for k = 1 to 20 do
      Engine.schedule engine
        ~delay:(0.3 *. float_of_int k)
        (fun () ->
          Replica.submit_write
            (System.replica sys (k mod 3))
            ~deps:[]
            ~affects:[ unit_w "c" ]
            ~op:(Op.Add ("x", float_of_int k))
            ~k:ignore)
    done;
    System.run ~until:200.0 sys;
    Alcotest.(check bool) "lossy run converged" true (System.converged sys);
    sys
  in
  let pw = run config and bt = run (batched config) in
  Alcotest.(check bool) "dropped messages in both" true
    ((System.traffic pw).Net.dropped > 0 && (System.traffic bt).Net.dropped > 0);
  Alcotest.(check bool) "same final database despite loss" true
    (Db.equal (Replica.db (System.replica pw 0)) (Replica.db (System.replica bt 0)))

(* An application workload: the shared editor's insert and delete procedures
   cross the Batch codec as named procedures.  Deletes clamp to the text
   present when they apply, so outcomes depend on the commit order; under
   Stability that order is canonical, and both modes must agree on every
   database and every final outcome. *)
let test_differential_app () =
  let config =
    {
      Config.default with
      Config.conits =
        [ Tact_core.Conit.declare ~ne_bound:8.0 (Tact_apps.Editor.add_conit ~para:0) ];
      antientropy_period = Some 0.4;
      procs = Tact_apps.Editor.procs;
    }
  in
  let run config =
    let topology = Topology.uniform ~n:3 ~latency:0.03 ~bandwidth:1e8 in
    let sys = System.create ~seed:5 ~jitter:0.05 ~topology ~config () in
    let engine = System.engine sys in
    for k = 1 to 30 do
      Engine.schedule engine
        ~delay:(0.05 *. float_of_int k)
        (fun () ->
          let author = k mod 3 in
          let s = Session.create (System.replica sys author) in
          if k mod 4 = 0 then
            Tact_apps.Editor.delete_chars s ~para:0 ~author ~count:3 ~k:ignore
          else
            Tact_apps.Editor.insert_text s ~para:0 ~author
              ~text:(String.make (1 + (k mod 5)) (Char.chr (97 + author)))
              ~k:ignore)
    done;
    System.run ~until:60.0 sys;
    Alcotest.(check bool) "app run converged" true (System.converged sys);
    sys
  in
  let pw = run config and bt = run (batched config) in
  Alcotest.(check bool) "batched frames were coalesced" true
    ((System.total_stats bt).Replica.batches > 0);
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "replica %d database identical" i)
      true
      (Db.equal (Replica.db (System.replica pw i)) (Replica.db (System.replica bt i)))
  done;
  let finals sys =
    let log = Replica.log (System.replica sys 0) in
    List.map (fun (w : Write.t) -> (w.id, Wlog.final_outcome log w.id)) (Wlog.committed log)
  in
  Alcotest.(check int) "every write committed" 30 (List.length (finals pw));
  Alcotest.(check bool) "identical final outcomes" true (finals pw = finals bt)

(* Nemesis differential: sampled plans under sampled fault schedules (plus a
   forced loss+duplication schedule) produce identical oracle verdicts in
   both modes, and — under Stability commitment, where the committed order is
   canonical — identical final state fingerprints.  Duplication in particular
   proves a re-delivered frame cannot double-apply. *)
let test_differential_nemesis () =
  let open Tact_check in
  let run plan faults = Runner.run (Runner.spec ~faults plan) in
  let messages (r : Runner.result) =
    (System.traffic r.Runner.sys).Tact_sim.Net.messages
  in
  for seed = 0 to 5 do
    let p, sampled = Sample.draw ~seed in
    let forced =
      {
        Fault.events =
          [
            { Fault.at = 0.5; action = Fault.Global_loss { rate = 0.2; salt = 3 } };
            { Fault.at = 0.75; action = Fault.Duplication { rate = 0.3; salt = 9 } };
          ];
        quiet_after = sampled.Fault.quiet_after;
      }
    in
    List.iter
      (fun schedule ->
        let pw = run p schedule in
        let bt = run (batched_plan p) schedule in
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d: identical oracle verdicts" seed)
          pw.Runner.violations bt.Runner.violations;
        (* Sampled plans are mostly gossip-paced (one frame per tick in both
           modes), so the count can tie; the strict reduction is asserted on
           the push-flood workload above and measured by the bench. *)
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: batched sends no more messages" seed)
          true
          (messages bt <= messages pw);
        match p.Sample.config.Config.commit_scheme with
        | Config.Stability ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: identical state fingerprint" seed)
            true
            (Int64.equal pw.Runner.final_fp bt.Runner.final_fp)
        | Config.Primary _ -> ())
      [ sampled; forced ]
  done

(* Duplicated frames must not double-apply: a duplication-only batched run
   lands on the same fingerprint as the duplication-free batched run. *)
let test_duplication_no_double_apply () =
  let open Tact_check in
  let p, sampled = Sample.draw ~seed:2 in
  (match p.Sample.config.Config.commit_scheme with
  | Config.Stability -> ()
  | Config.Primary _ -> Alcotest.fail "seed 2 expected to sample Stability");
  let quiet_after = sampled.Fault.quiet_after in
  let clean = { Fault.events = []; quiet_after } in
  let dup =
    {
      Fault.events =
        [ { Fault.at = 0.25; action = Fault.Duplication { rate = 0.5; salt = 17 } } ];
      quiet_after;
    }
  in
  let run faults = Runner.run (Runner.spec ~faults (batched_plan p)) in
  let a = run clean in
  let b = run dup in
  Alcotest.(check (list string)) "duplication run clean" [] b.Runner.violations;
  Alcotest.(check bool) "duplicates do not double-apply" true
    (Int64.equal a.Runner.final_fp b.Runner.final_fp)

let suite =
  [
    Alcotest.test_case "frame reserve offsets" `Quick test_frame_reserve;
    Alcotest.test_case "frame growth and reuse" `Quick test_frame_growth_and_reuse;
    Alcotest.test_case "frame preallocate" `Quick test_frame_preallocate;
    Alcotest.test_case "batch round-trip (delta)" `Quick test_batch_roundtrip_delta;
    Alcotest.test_case "batch byte_size exact for every payload shape" `Quick
      test_batch_sizes_every_shape;
    Alcotest.test_case "batch rejects garbage" `Quick test_batch_rejects_garbage;
    Alcotest.test_case "planner snapshot fallback" `Quick test_plan_snapshot_fallback;
    Alcotest.test_case "differential: clean workload" `Quick test_differential_clean;
    Alcotest.test_case "differential: lossy network" `Quick test_differential_lossy;
    Alcotest.test_case "differential: app workload" `Quick test_differential_app;
    Alcotest.test_case "differential: nemesis schedules" `Quick
      test_differential_nemesis;
    Alcotest.test_case "duplication cannot double-apply" `Quick
      test_duplication_no_double_apply;
  ]
