(* The write log: tentative/committed split, rollback & reapply, stability
   and CSN commitment, pending-gap buffering, incremental conit bookkeeping. *)

open Tact_store

let feq a b = Float.abs (a -. b) < 1e-9

let unit_w conit = { Write.conit; nweight = 1.0; oweight = 1.0 }

let mk ?(op = Op.Noop) ?(affects = [ unit_w "c" ]) ~origin ~seq ~t () =
  Write.make ~id:{ origin; seq } ~accept_time:t ~op ~affects

let add_op k = Op.Add (k, 1.0)

(* The write procedures these tests run.  "stamp" is order-sensitive: it
   records its position in the application order.  "take" consumes one unit
   of stock, conflicting when none is left. *)
let procs =
  [
    ( "stamp",
      fun arg db ->
        let name = match arg with Value.Str name -> name | _ -> "?" in
        ignore (Db.add db "order.counter" 1.0);
        Db.set db ("pos." ^ name) (Value.Float (Db.get_float db "order.counter"));
        Op.Applied Value.Nil );
    ( "take",
      fun _ db ->
        if Db.get_float db "stock" >= 1.0 then Op.Applied (Db.add db "stock" (-1.0))
        else Op.Conflict "conflict" );
  ]

let create ~replicas ~initial =
  Wlog.create_bounded ~procs ~bounded:false ~replicas ~initial

let seq_stamp_op name = Op.Named ("stamp", Value.Str name)
let take = Op.Named ("take", Value.Nil)

let test_accept_applies () =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  let o = Wlog.accept log (mk ~op:(add_op "x") ~origin:0 ~seq:1 ~t:1.0 ()) in
  Alcotest.(check bool) "applied" false (Op.conflicted o);
  Alcotest.(check bool) "visible in full view" true (feq (Db.get_float (Wlog.db log) "x") 1.0);
  Alcotest.(check bool) "not in committed view" true
    (feq (Db.get_float (Wlog.committed_db log) "x") 0.0);
  Alcotest.(check int) "one known" 1 (Wlog.num_known log);
  Alcotest.(check int) "none committed" 0 (Wlog.committed_count log)

let test_accept_out_of_sequence_rejected () =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  Alcotest.(check bool) "seq gap rejected" true
    (try
       ignore (Wlog.accept log (mk ~origin:0 ~seq:5 ~t:1.0 ()));
       false
     with Invalid_argument _ -> true)

let test_insert_duplicate () =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  let w = mk ~origin:1 ~seq:1 ~t:1.0 () in
  (match Wlog.insert log w with
  | Wlog.Inserted _ -> ()
  | _ -> Alcotest.fail "expected insert");
  Alcotest.(check bool) "duplicate detected" true (Wlog.insert log w = Wlog.Duplicate)

let test_insert_gap_buffered () =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  let w2 = mk ~op:(add_op "x") ~origin:1 ~seq:2 ~t:2.0 () in
  let w1 = mk ~op:(add_op "x") ~origin:1 ~seq:1 ~t:1.0 () in
  Alcotest.(check bool) "gap buffered" true (Wlog.insert log w2 = Wlog.Buffered);
  Alcotest.(check bool) "not yet known" false (Wlog.known log w2.Write.id);
  (match Wlog.insert log w1 with
  | Wlog.Inserted _ -> ()
  | _ -> Alcotest.fail "gap filler should insert");
  Alcotest.(check bool) "drained" true (Wlog.known log w2.Write.id);
  Alcotest.(check bool) "both applied" true (feq (Db.get_float (Wlog.db log) "x") 2.0)

let test_out_of_order_insert_reorders () =
  let log = create ~replicas:2 ~initial:[] in
  ignore (Wlog.accept log (mk ~op:(seq_stamp_op "b") ~origin:0 ~seq:1 ~t:5.0 ()));
  Alcotest.(check int) "no rollback yet" 0 (Wlog.rollbacks log);
  (* A remote write with an earlier timestamp lands in the middle. *)
  (match Wlog.insert log (mk ~op:(seq_stamp_op "a") ~origin:1 ~seq:1 ~t:3.0 ()) with
  | Wlog.Inserted _ -> ()
  | _ -> Alcotest.fail "insert");
  Alcotest.(check int) "one rollback" 1 (Wlog.rollbacks log);
  let db = Wlog.db log in
  Alcotest.(check bool) "a replayed first" true (feq (Db.get_float db "pos.a") 1.0);
  Alcotest.(check bool) "b replayed second" true (feq (Db.get_float db "pos.b") 2.0);
  let tentative = List.map (fun (w : Write.t) -> w.accept_time) (Wlog.tentative log) in
  Alcotest.(check (list (float 1e-9))) "ts order" [ 3.0; 5.0 ] tentative

let test_outcome_changes_under_reorder () =
  (* A guarded write that succeeds tentatively but conflicts after an
     earlier-timestamped write consumes the resource. *)
  let log = create ~replicas:2 ~initial:[ ("stock", Value.Float 1.0) ] in
  let mine = mk ~op:take ~origin:0 ~seq:1 ~t:5.0 () in
  (match Wlog.accept log mine with
  | Op.Applied _ -> ()
  | Op.Conflict _ -> Alcotest.fail "tentative should succeed");
  (match Wlog.insert log (mk ~op:take ~origin:1 ~seq:1 ~t:3.0 ()) with
  | Wlog.Inserted (Op.Applied _) -> ()
  | _ -> Alcotest.fail "earlier write should win the stock");
  (match Wlog.outcome log mine.Write.id with
  | Some (Op.Conflict _) -> ()
  | _ -> Alcotest.fail "reordered outcome should now conflict");
  Alcotest.(check bool) "stock empty" true (feq (Db.get_float (Wlog.db log) "stock") 0.0)

let test_commit_stable_prefix () =
  let log = Wlog.create ~replicas:3 ~initial:[] in
  ignore (Wlog.accept log (mk ~op:(add_op "x") ~origin:0 ~seq:1 ~t:1.0 ()));
  ignore (Wlog.accept log (mk ~op:(add_op "x") ~origin:0 ~seq:2 ~t:4.0 ()));
  (match Wlog.insert log (mk ~op:(add_op "x") ~origin:1 ~seq:1 ~t:2.0 ()) with
  | Wlog.Inserted _ -> ()
  | _ -> Alcotest.fail "insert");
  (* Covers: origins 1 and 2 heard up to t=3 -> writes at t=1,2 are stable,
     t=4 is not. *)
  let n = Wlog.commit_stable log ~cover:[| 10.0; 3.0; 3.0 |] in
  Alcotest.(check int) "two committed" 2 n;
  Alcotest.(check int) "committed count" 2 (Wlog.committed_count log);
  Alcotest.(check bool) "committed image has both" true
    (feq (Db.get_float (Wlog.committed_db log) "x") 2.0);
  Alcotest.(check bool) "full image has all three" true
    (feq (Db.get_float (Wlog.db log) "x") 3.0);
  Alcotest.(check int) "one tentative left" 1 (List.length (Wlog.tentative log));
  (* Committing again with the same covers is a no-op. *)
  Alcotest.(check int) "idempotent" 0 (Wlog.commit_stable log ~cover:[| 10.0; 3.0; 3.0 |])

let test_commit_stable_tie_break () =
  (* A write at exactly the cover time of a lower-numbered origin must not
     commit: that origin could still produce a write at the same instant that
     sorts first. *)
  let log = Wlog.create ~replicas:2 ~initial:[] in
  ignore (Wlog.accept log (mk ~origin:1 ~seq:1 ~t:3.0 ()));
  Alcotest.(check int) "tie with lower origin blocks" 0
    (Wlog.commit_stable log ~cover:[| 3.0; 10.0 |]);
  Alcotest.(check int) "strictly past commits" 1
    (Wlog.commit_stable log ~cover:[| 3.0001; 10.0 |]);
  (* Symmetric case: the tied origin is higher-numbered, so its future write
     at the same instant sorts after ours — safe to commit. *)
  let log2 = Wlog.create ~replicas:2 ~initial:[] in
  ignore (Wlog.accept log2 (mk ~origin:0 ~seq:1 ~t:3.0 ()));
  Alcotest.(check int) "tie with higher origin commits" 1
    (Wlog.commit_stable log2 ~cover:[| 10.0; 3.0 |])

let test_final_outcomes () =
  let log = create ~replicas:2 ~initial:[ ("stock", Value.Float 1.0) ] in
  let late = mk ~op:take ~origin:0 ~seq:1 ~t:5.0 () in
  ignore (Wlog.accept log late);
  ignore (Wlog.insert log (mk ~op:take ~origin:1 ~seq:1 ~t:3.0 ()));
  Alcotest.(check bool) "no final before commit" true
    (Wlog.final_outcome log late.Write.id = None);
  ignore (Wlog.commit_stable log ~cover:[| 99.0; 99.0 |]);
  (match Wlog.final_outcome log late.Write.id with
  | Some (Op.Conflict _) -> ()
  | _ -> Alcotest.fail "final outcome should be the conflicted one")

let test_commit_ids_reorder () =
  (* CSN order disagreeing with timestamp order forces a full-image rebuild. *)
  let log = create ~replicas:2 ~initial:[] in
  let a = mk ~op:(seq_stamp_op "a") ~origin:0 ~seq:1 ~t:1.0 () in
  let b = mk ~op:(seq_stamp_op "b") ~origin:0 ~seq:2 ~t:2.0 () in
  ignore (Wlog.accept log a);
  ignore (Wlog.accept log b);
  let n = Wlog.commit_ids log [ b.Write.id; a.Write.id ] in
  Alcotest.(check int) "both committed" 2 n;
  (* Committed image must reflect CSN order: b first. *)
  Alcotest.(check bool) "b first in committed image" true
    (feq (Db.get_float (Wlog.committed_db log) "pos.b") 1.0);
  Alcotest.(check bool) "full image rebuilt to match" true
    (feq (Db.get_float (Wlog.db log) "pos.b") 1.0);
  Alcotest.(check (list (float 1e-9))) "committed order" [ 2.0; 1.0 ]
    (List.map (fun (w : Write.t) -> w.Write.accept_time) (Wlog.committed log));
  (* Unknown and already-committed ids are skipped. *)
  Alcotest.(check int) "skip unknown/dup" 0
    (Wlog.commit_ids log [ a.Write.id; { Write.origin = 1; seq = 9 } ])

let test_conit_bookkeeping () =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  ignore
    (Wlog.accept log
       (mk ~affects:[ { Write.conit = "a"; nweight = 2.0; oweight = 0.5 } ]
          ~origin:0 ~seq:1 ~t:1.0 ()));
  ignore
    (Wlog.accept log
       (mk ~affects:[ { Write.conit = "a"; nweight = -0.5; oweight = 1.0 } ]
          ~origin:0 ~seq:2 ~t:2.0 ()));
  Alcotest.(check bool) "value accumulates signed" true (feq (Wlog.conit_value log "a") 1.5);
  Alcotest.(check bool) "tentative oweight" true (feq (Wlog.tentative_oweight log "a") 1.5);
  Alcotest.(check bool) "max oweight" true (feq (Wlog.tentative_max_oweight log) 1.5);
  ignore (Wlog.commit_stable log ~cover:[| 99.0; 99.0 |]);
  Alcotest.(check bool) "oweight drains at commit" true (feq (Wlog.tentative_oweight log "a") 0.0);
  Alcotest.(check bool) "committed value" true (feq (Wlog.committed_conit_value log "a") 1.5);
  Alcotest.(check bool) "unknown conit zero" true (feq (Wlog.conit_value log "zzz") 0.0)

let test_writes_since () =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  ignore (Wlog.accept log (mk ~origin:0 ~seq:1 ~t:1.0 ()));
  ignore (Wlog.accept log (mk ~origin:0 ~seq:2 ~t:2.0 ()));
  ignore (Wlog.insert log (mk ~origin:1 ~seq:1 ~t:1.5 ()));
  let v = Version_vector.create 2 in
  Alcotest.(check int) "all from zero vector" 3 (List.length (Wlog.writes_since log v));
  Version_vector.set v 0 1;
  let diff = Wlog.writes_since log v in
  Alcotest.(check int) "two missing" 2 (List.length diff);
  (* Returned in timestamp order. *)
  Alcotest.(check (list (float 1e-9))) "ts order" [ 1.5; 2.0 ]
    (List.map (fun (w : Write.t) -> w.Write.accept_time) diff)

(* The merge agrees with an independent reference, every resident write
   [v] does not cover sorted by [Write.ts_compare], at every lag — so a
   merge that drops, repeats or misorders a write fails.  Ties on
   accept_time are plentiful, within and across origins (broken by origin,
   then seq), and there are origins with empty deltas.  The second log
   covers every set of 1 to 5 live origins. *)
let test_writes_since_merge_order () =
  let ids l = List.map (fun (w : Write.t) -> w.id) l in
  let build ~replicas ~writers ~per =
    let log = Wlog.create ~replicas ~initial:[] in
    let all = ref [] in
    for origin = 0 to writers - 1 do
      for seq = 1 to per do
        (* Coarse timestamps: non-decreasing per origin, with plenty of
           ties. *)
        let w = mk ~origin ~seq ~t:(float_of_int ((seq + origin) / 2)) () in
        all := w :: !all;
        ignore (Wlog.insert log w)
      done
    done;
    (log, !all)
  in
  let check name (log, all) v =
    let reference =
      List.filter (fun (w : Write.t) -> w.id.seq > Version_vector.get v w.id.origin) all
      |> List.sort Write.ts_compare
    in
    Alcotest.(check bool) name true (ids (Wlog.writes_since log v) = ids reference)
  in
  (* Origin [replicas-1] stays empty. *)
  let replicas = 5 in
  let sample = build ~replicas ~writers:(replicas - 1) ~per:40 in
  for lag = 0 to 40 do
    let v = Version_vector.create replicas in
    for o = 0 to replicas - 1 do
      Version_vector.set v o (max 0 (40 - lag - o))
    done;
    check (Printf.sprintf "merge order at lag %d" lag) sample v
  done;
  (* Origins 0-4 write, origin 5 never does; [v] covers every origin outside
     [live] completely. *)
  let replicas = 6 and per = 30 in
  let sample = build ~replicas ~writers:5 ~per in
  for live = 1 to 31 do
    List.iter
      (fun lag ->
        let v = Version_vector.create replicas in
        for o = 0 to 4 do
          let lag = if live land (1 lsl o) <> 0 then lag + o else 0 in
          Version_vector.set v o (max 0 (per - lag))
        done;
        check (Printf.sprintf "origins %#x live at lag %d" live lag) sample v)
      [ 1; 2; 7; per ]
  done

let test_insert_batch_single_replay () =
  let log = Wlog.create ~replicas:3 ~initial:[] in
  ignore (Wlog.accept log (mk ~op:(add_op "x") ~origin:0 ~seq:1 ~t:10.0 ()));
  let batch =
    [ mk ~op:(add_op "x") ~origin:1 ~seq:1 ~t:1.0 ();
      mk ~op:(add_op "x") ~origin:1 ~seq:2 ~t:2.0 ();
      mk ~op:(add_op "x") ~origin:2 ~seq:1 ~t:3.0 () ]
  in
  let fresh = Wlog.insert_batch log batch in
  Alcotest.(check int) "three new" 3 (List.length fresh);
  Alcotest.(check int) "single rollback for the batch" 1 (Wlog.rollbacks log);
  Alcotest.(check bool) "all applied" true (feq (Db.get_float (Wlog.db log) "x") 4.0);
  (* Re-inserting the same batch is a no-op. *)
  Alcotest.(check int) "idempotent" 0 (List.length (Wlog.insert_batch log batch))

let test_insert_batch_returns_drained () =
  let log = Wlog.create ~replicas:2 ~initial:[] in
  (* Gap first, then the batch that fills it must report both as fresh. *)
  Alcotest.(check bool) "buffered" true
    (Wlog.insert log (mk ~origin:1 ~seq:2 ~t:2.0 ()) = Wlog.Buffered);
  let fresh = Wlog.insert_batch log [ mk ~origin:1 ~seq:1 ~t:1.0 () ] in
  Alcotest.(check int) "gap filler + drained" 2 (List.length fresh)

(* Property: two logs receiving the same writes in different orders converge
   to the same full image and the same tentative order. *)
let test_convergence_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"logs converge regardless of delivery order"
       ~count:100
       QCheck.(int_bound 1000)
       (fun seed ->
         let rng = Tact_util.Prng.create ~seed in
         let n = 3 in
         (* Build a global pool of writes: per-origin increasing times. *)
         let pool = ref [] in
         let clock = Array.make n 0.0 in
         for origin = 0 to n - 1 do
           let count = 1 + Tact_util.Prng.int rng 8 in
           for seq = 1 to count do
             clock.(origin) <-
               clock.(origin) +. Tact_util.Prng.float rng 5.0 +. 0.001;
             pool :=
               mk
                 ~op:(seq_stamp_op (Printf.sprintf "w%d.%d" origin seq))
                 ~origin ~seq ~t:clock.(origin) ()
               :: !pool
           done
         done;
         let pool = Array.of_list !pool in
         let make_log () =
           let log = create ~replicas:n ~initial:[] in
           let order = Array.copy pool in
           Tact_util.Prng.shuffle rng order;
           (* Insert one at a time; gaps buffer and drain naturally. *)
           Array.iter (fun w -> ignore (Wlog.insert log w)) order;
           log
         in
         let a = make_log () and b = make_log () in
         Db.equal (Wlog.db a) (Wlog.db b)
         && List.map (fun (w : Write.t) -> w.Write.id) (Wlog.tentative a)
            = List.map (fun (w : Write.t) -> w.Write.id) (Wlog.tentative b)))

(* Property: stability commitment never commits a write some origin could
   still precede, and repeated partial commits equal one big commit. *)
let test_commit_stable_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"incremental stability commits = one-shot" ~count:100
       QCheck.(int_bound 1000)
       (fun seed ->
         let rng = Tact_util.Prng.create ~seed in
         let n = 3 in
         let clock = Array.make n 0.0 in
         let pool = ref [] in
         for origin = 0 to n - 1 do
           for seq = 1 to 5 do
             clock.(origin) <- clock.(origin) +. Tact_util.Prng.float rng 3.0 +. 0.001;
             pool := mk ~op:(add_op "x") ~origin ~seq ~t:clock.(origin) () :: !pool
           done
         done;
         let build () =
           let log = Wlog.create ~replicas:n ~initial:[] in
           List.iter (fun w -> ignore (Wlog.insert log w)) (List.rev !pool);
           log
         in
         let log1 = build () in
         let log2 = build () in
         let mid = Array.map (fun c -> c /. 2.0) clock in
         let final = Array.map (fun c -> c +. 1.0) clock in
         let a = Wlog.commit_stable log1 ~cover:mid in
         let b = Wlog.commit_stable log1 ~cover:final in
         let c = Wlog.commit_stable log2 ~cover:final in
         a + b = c
         && List.map (fun (w : Write.t) -> w.Write.id) (Wlog.committed log1)
            = List.map (fun (w : Write.t) -> w.Write.id) (Wlog.committed log2)))

let base_suite =
  [
    Alcotest.test_case "accept applies" `Quick test_accept_applies;
    Alcotest.test_case "accept out-of-seq rejected" `Quick test_accept_out_of_sequence_rejected;
    Alcotest.test_case "insert duplicate" `Quick test_insert_duplicate;
    Alcotest.test_case "insert gap buffered" `Quick test_insert_gap_buffered;
    Alcotest.test_case "out-of-order insert reorders" `Quick test_out_of_order_insert_reorders;
    Alcotest.test_case "outcome changes under reorder" `Quick test_outcome_changes_under_reorder;
    Alcotest.test_case "commit_stable prefix" `Quick test_commit_stable_prefix;
    Alcotest.test_case "commit_stable tie-break" `Quick test_commit_stable_tie_break;
    Alcotest.test_case "final outcomes" `Quick test_final_outcomes;
    Alcotest.test_case "commit_ids reorder" `Quick test_commit_ids_reorder;
    Alcotest.test_case "conit bookkeeping" `Quick test_conit_bookkeeping;
    Alcotest.test_case "writes_since" `Quick test_writes_since;
    Alcotest.test_case "writes_since merge order" `Quick
      test_writes_since_merge_order;
    Alcotest.test_case "insert_batch single replay" `Quick test_insert_batch_single_replay;
    Alcotest.test_case "insert_batch returns drained" `Quick test_insert_batch_returns_drained;
    test_convergence_prop;
    test_commit_stable_prop;
  ]

(* Final outcomes under CSN reordering: the committed outcome reflects the
   supplied order, not timestamp order. *)
let test_csn_final_outcome_order () =
  let log = create ~replicas:2 ~initial:[ ("stock", Value.Float 1.0) ] in
  let early = mk ~op:take ~origin:0 ~seq:1 ~t:1.0 () in
  let late = mk ~op:take ~origin:0 ~seq:2 ~t:2.0 () in
  ignore (Wlog.accept log early);
  ignore (Wlog.accept log late);
  (* The primary decided to commit the late one first. *)
  ignore (Wlog.commit_ids log [ late.Write.id; early.Write.id ]);
  (match Wlog.final_outcome log late.Write.id with
  | Some (Op.Applied _) -> ()
  | _ -> Alcotest.fail "late write should win under CSN order");
  match Wlog.final_outcome log early.Write.id with
  | Some (Op.Conflict _) -> ()
  | _ -> Alcotest.fail "early write should lose under CSN order"

(* Tentative writes are applied when the image is read.  A "count"
   procedure tallies its applications per write and records its position in
   the application order, so outcomes depend on the order.  A storm of
   shuffled batches (gaps included) applies nothing; each read, of the image
   or of outcomes, applies every write at most once; and images and outcomes
   equal those of a log that applies every arrival at once. *)
let counting_procs counts =
  [
    ( "count",
      fun arg db ->
        let k = match arg with Value.Int k -> k | _ -> -1 in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k));
        let n = Db.add db "n" 1.0 in
        Db.set db (Printf.sprintf "pos.%d" k) n;
        Op.Applied n );
  ]

let test_apply_on_read_counts () =
  let replicas = 4 and per_origin = 30 in
  let rng = Tact_util.Prng.create ~seed:11 in
  let writes =
    List.concat_map
      (fun origin ->
        let t = ref 0.0 in
        List.init per_origin (fun i ->
            t := !t +. 0.01 +. Tact_util.Prng.float rng 2.0;
            mk
              ~op:(Op.Named ("count", Value.Int ((origin * 100) + i + 1)))
              ~origin ~seq:(i + 1) ~t:!t ()))
      (List.init replicas Fun.id)
  in
  let arrivals = Array.of_list writes in
  Tact_util.Prng.shuffle rng arrivals;
  let counts = Hashtbl.create 64 and eager_counts = Hashtbl.create 64 in
  let log_with procs =
    Wlog.create_bounded ~procs ~bounded:false ~replicas ~initial:[]
  in
  let lazy_log = log_with (counting_procs counts) in
  let eager = log_with (counting_procs eager_counts) in
  let applications () = Hashtbl.fold (fun _ c acc -> acc + c) counts 0 in
  let pos = ref 0 in
  let rounds = 4 in
  for round = 1 to rounds do
    let stop = Array.length arrivals * round / rounds in
    while !pos < stop do
      let len = min (1 + Tact_util.Prng.int rng 7) (stop - !pos) in
      let batch = Array.to_list (Array.sub arrivals !pos len) in
      ignore (Wlog.insert_batch lazy_log batch);
      List.iter (fun w -> ignore (Wlog.insert eager w)) batch;
      pos := !pos + len
    done;
    Alcotest.(check int) (Printf.sprintf "round %d: storm applies nothing" round) 0
      (applications ());
    if round = rounds then begin
      (* Commit half the suffix before reading, so writes that were never
         applied commit. *)
      let cover = Array.make replicas 20.0 in
      let n = Wlog.commit_stable lazy_log ~cover in
      Alcotest.(check int) "same commits" (Wlog.commit_stable eager ~cover) n;
      Alcotest.(check bool) "some committed" true (n > 0);
      Hashtbl.reset counts
    end;
    (* Odd rounds read the image, even rounds the outcomes. *)
    if round mod 2 = 1 then ignore (Wlog.db lazy_log)
    else
      List.iter
        (fun (w : Write.t) ->
          Alcotest.(check bool) (Write.id_to_string w.id ^ " outcome") true
            (Wlog.outcome lazy_log w.id = Wlog.outcome eager w.id))
        writes;
    Hashtbl.iter
      (fun k c ->
        if c > 1 then Alcotest.failf "round %d: write %d applied %d times by one read" round k c)
      counts;
    Hashtbl.reset counts;
    ignore (Wlog.db lazy_log);
    Alcotest.(check int) (Printf.sprintf "round %d: a second read applies nothing" round) 0
      (applications ());
    Alcotest.(check bool) (Printf.sprintf "round %d: image equals eager" round) true
      (Db.equal (Wlog.db lazy_log) (Wlog.db eager))
  done;
  Alcotest.(check bool) "committed image equals eager" true
    (Db.equal (Wlog.committed_db lazy_log) (Wlog.committed_db eager));
  List.iter
    (fun (w : Write.t) ->
      let id = Write.id_to_string w.id in
      Alcotest.(check bool) (id ^ " outcome") true
        (Wlog.outcome lazy_log w.id = Wlog.outcome eager w.id);
      Alcotest.(check bool) (id ^ " final outcome") true
        (Wlog.final_outcome lazy_log w.id = Wlog.final_outcome eager w.id))
    writes

(* Snapshot values list exactly the conits that committed: "z" committed
   to a sum of 0.0 and is listed; "b" has only tentative writes and is not,
   though its committed value reads 0.0.  The bytes of the fixed log's
   snapshot are pinned, and installing them into a fresh log reproduces
   them. *)
let snapshot_golden =
  "000000000000000200000000000000010000000000000001000000000000000200000000000000020000000000000001613ff800000000000000000000000000017a00000000000000000000000000000001000000000000000178024008000000000000"

let test_snapshot_values () =
  let wt conit nweight oweight = { Write.conit; nweight; oweight } in
  let w ~origin ~seq ~t affects = mk ~op:(add_op "x") ~affects ~origin ~seq ~t () in
  let log = Wlog.create ~replicas:2 ~initial:[ ("x", Value.Float 1.0) ] in
  ignore (Wlog.accept log (w ~origin:0 ~seq:1 ~t:1.0 [ wt "a" 1.5 1.0; wt "z" 1.0 0.5 ]));
  ignore (Wlog.insert log (w ~origin:1 ~seq:1 ~t:2.0 [ wt "z" (-1.0) 0.5 ]));
  ignore (Wlog.insert log (w ~origin:1 ~seq:2 ~t:5.0 [ wt "b" 2.0 1.0 ]));
  ignore (Wlog.accept log (w ~origin:0 ~seq:2 ~t:6.0 [ wt "b" 0.25 1.0; wt "a" 0.5 1.0 ]));
  Alcotest.(check int) "two commit" 2 (Wlog.commit_stable log ~cover:[| 3.0; 3.0 |]);
  let snap = Wlog.snapshot log in
  Alcotest.(check (list (pair string (float 0.0)))) "committed conits only"
    [ ("a", 1.5); ("z", 0.0) ] snap.Wlog.snap_values;
  Alcotest.(check (float 0.0)) "tentative-only conit reads 0.0" 0.0
    (Wlog.committed_conit_value log "b");
  Alcotest.(check (float 0.0)) "its value counts the tentative writes" 2.25
    (Wlog.conit_value log "b");
  let hex s =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))
  in
  let bytes = Codec.snapshot_to_string snap in
  Alcotest.(check string) "snapshot bytes" snapshot_golden (hex bytes);
  let fresh = Wlog.create ~replicas:2 ~initial:[] in
  Alcotest.(check bool) "installed" true (Wlog.install_snapshot fresh snap);
  Alcotest.(check string) "reinstalled snapshot bytes" snapshot_golden
    (hex (Codec.snapshot_to_string (Wlog.snapshot fresh)))

(* Under primary (CSN) commit order a truncation can overtake a lower-seq
   straggler: w0.2 commits and is truncated while w0.1 is still tentative.
   The straggler stays resident but unservable; every vector the log can
   still serve gets exactly the reference filter's writes (each missing seq
   looked up by id, then sorted), and the sanitizer stays clean, with and
   without eviction of truncated slots. *)
let test_straggler_writes_since () =
  List.iter
    (fun evict ->
      let log =
        Wlog.create_bounded ~procs ~bounded:evict ~replicas:2
          ~initial:[]
      in
      let all =
        List.init 4 (fun i -> mk ~origin:0 ~seq:(i + 1) ~t:(float_of_int ((2 * i) + 1)) ())
        @ List.init 3 (fun i -> mk ~origin:1 ~seq:(i + 1) ~t:(float_of_int ((2 * i) + 2)) ())
      in
      List.iter (fun w -> ignore (Wlog.insert log w)) all;
      Alcotest.(check int) "primary order commits past the straggler" 2
        (Wlog.commit_ids log [ { Write.origin = 0; seq = 2 }; { origin = 1; seq = 1 } ]);
      Alcotest.(check int) "both truncated" 2 (Wlog.truncate log ~keep:0);
      Alcotest.(check bool) "straggler still tentative" true
        (List.mem { Write.origin = 0; seq = 1 } (Wlog.tentative_ids log));
      let vec v =
        let x = Version_vector.create 2 in
        Array.iteri (Version_vector.set x) v;
        x
      in
      Alcotest.(check bool) "straggler unservable" false (Wlog.can_serve log (vec [| 1; 1 |]));
      (match Wlog.writes_since log (vec [| 0; 1 |]) with
      | _ -> Alcotest.fail "served past the truncation vector"
      | exception Invalid_argument m ->
        Alcotest.(check string) "names the first seq gone"
          "Wlog.writes_since: w0.2 was truncated (check can_serve first)" m);
      let reference have =
        List.filter
          (fun (w : Write.t) ->
            w.id.seq > have.(w.id.origin)
            && Version_vector.covers (Wlog.vector log) ~origin:w.id.origin ~seq:w.id.seq)
          all
        |> List.sort Write.ts_compare
      in
      let ids l = List.map (fun (w : Write.t) -> Write.id_to_string w.id) l in
      List.iter
        (fun have ->
          Alcotest.(check (list string))
            (Printf.sprintf "evict=%b since [%d;%d]" evict have.(0) have.(1))
            (ids (reference have))
            (ids (Wlog.writes_since log (vec have))))
        (* [2;3], [3;3] and [4;2] miss writes of one origin only. *)
        [ [| 2; 1 |]; [| 3; 1 |]; [| 2; 3 |]; [| 3; 3 |]; [| 4; 2 |]; [| 4; 3 |] ];
      (match Wlog.writes_since log (vec [| 0; 3 |]) with
      | _ -> Alcotest.fail "served a one-origin delta past the truncation vector"
      | exception Invalid_argument m ->
        Alcotest.(check string) "one origin: names the first seq gone"
          "Wlog.writes_since: w0.2 was truncated (check can_serve first)" m);
      Alcotest.(check (list string)) "sanitizer clean" [] (Wlog.invariant_violations log))
    [ false; true ]

(* A tally handle is resolved once and read forever after: it must see the
   same figures as the by-name readers after a snapshot install resets the
   tallies, including for a conit the handle created before any write. *)
let test_tally_handle_survives_snapshot () =
  let wt conit nweight oweight = { Write.conit; nweight; oweight } in
  let w ~origin ~seq ~t affects = mk ~affects ~origin ~seq ~t () in
  let src = Wlog.create ~replicas:2 ~initial:[] in
  ignore (Wlog.accept src (w ~origin:0 ~seq:1 ~t:1.0 [ wt "c" 2.0 1.0; wt "d" 4.0 1.0 ]));
  ignore (Wlog.insert src (w ~origin:1 ~seq:1 ~t:2.0 [ wt "c" 3.0 1.0 ]));
  Alcotest.(check int) "both commit" 2 (Wlog.commit_stable src ~cover:[| 3.0; 3.0 |]);
  let snap = Wlog.snapshot src in
  let log = Wlog.create ~replicas:2 ~initial:[] in
  let hc = Wlog.tally log "c" and hd = Wlog.tally log "d" in
  ignore (Wlog.insert log (w ~origin:1 ~seq:1 ~t:2.0 [ wt "c" 3.0 1.0 ]));
  ignore (Wlog.insert log (w ~origin:1 ~seq:2 ~t:4.0 [ wt "c" 0.5 0.25; wt "d" 1.0 0.5 ]));
  Alcotest.(check bool) "installed" true (Wlog.install_snapshot log snap);
  List.iter
    (fun (name, h, value, tent_ow) ->
      Alcotest.(check (float 0.0)) (name ^ " value") value (Wlog.tally_value h);
      Alcotest.(check (float 0.0)) (name ^ " value = conit_value")
        (Wlog.conit_value log name) (Wlog.tally_value h);
      Alcotest.(check (float 0.0)) (name ^ " order weight") tent_ow (Wlog.tally_tent_ow h);
      Alcotest.(check (float 0.0)) (name ^ " order weight = tentative_oweight")
        (Wlog.tentative_oweight log name) (Wlog.tally_tent_ow h))
    [ ("c", hc, 5.5, 0.25); ("d", hd, 5.0, 0.5) ]

(* --- One database image --------------------------------------------------

   The log keeps one image, the committed image being that image with the
   applied suffix's journals reverted.  A seat pool makes outcomes depend on
   the state: "book" takes a seat and records how many are left, and
   conflicts once none is.  *)

let seat_procs =
  [
    ( "book",
      fun arg db ->
        let name = match arg with Value.Str name -> name | _ -> "?" in
        if Db.get_float db "seats" < 1.0 then Op.Conflict "full"
        else begin
          let left = Db.add db "seats" (-1.0) in
          Db.set db ("seat." ^ name) left;
          Op.Applied left
        end );
  ]

let seat_log ~seats =
  Wlog.create_bounded ~procs:seat_procs ~bounded:false ~replicas:3
    ~initial:[ ("seats", Value.Float (float_of_int seats)) ]

let book ~origin ~seq ~t =
  mk ~op:(Op.Named ("book", Value.Str (Printf.sprintf "%d.%d" origin seq))) ~origin ~seq ~t ()

(* The committed prefix replayed from the initial image: the final outcomes
   and the committed image a log must agree with. *)
let replay_committed log ~seats =
  let db = Db.create [ ("seats", Value.Float (float_of_int seats)) ] in
  let outcomes =
    List.map
      (fun (w : Write.t) -> (w.id, Op.apply ~procs:seat_procs w.op db))
      (Wlog.committed log)
  in
  (db, outcomes)

(* Two logs receive the same shuffled batches and commit under the same
   covers.  One reads its image after every batch, so every write it
   commits was applied first and keeps its tentative outcome; the other
   never reads, so committing is each write's one application.  Both end
   with the final outcomes and images of a replay of the committed order. *)
let test_one_image_read_or_not () =
  let seats = 7 and per_origin = 8 in
  let rng = Tact_util.Prng.create ~seed:27 in
  let writes =
    List.concat_map
      (fun origin ->
        let t = ref 0.0 in
        List.init per_origin (fun i ->
            t := !t +. 0.01 +. Tact_util.Prng.float rng 1.0;
            book ~origin ~seq:(i + 1) ~t:!t))
      [ 0; 1; 2 ]
  in
  let arrivals = Array.of_list writes in
  Tact_util.Prng.shuffle rng arrivals;
  let reader = seat_log ~seats and blind = seat_log ~seats in
  (* Origin o's cover: just under its oldest write not yet known. *)
  let cover log =
    Array.init 3 (fun o ->
        List.fold_left
          (fun acc (w : Write.t) ->
            if w.id.origin = o && not (Wlog.known log w.id) then
              Float.min acc (w.accept_time -. 1e-6)
            else acc)
          100.0 writes)
  in
  let pos = ref 0 in
  while !pos < Array.length arrivals do
    let len = min (1 + Tact_util.Prng.int rng 4) (Array.length arrivals - !pos) in
    let batch = Array.to_list (Array.sub arrivals !pos len) in
    pos := !pos + len;
    ignore (Wlog.insert_batch reader batch);
    ignore (Wlog.insert_batch blind batch);
    ignore (Wlog.db reader);
    let c = cover reader in
    Alcotest.(check int) "same commits" (Wlog.commit_stable reader ~cover:c)
      (Wlog.commit_stable blind ~cover:c)
  done;
  Alcotest.(check int) "everything committed" (List.length writes)
    (Wlog.committed_count reader);
  let db, outcomes = replay_committed reader ~seats in
  let conflicts = List.filter (fun (_, o) -> Op.conflicted o) outcomes in
  Alcotest.(check int) "the pool runs dry" (List.length writes - seats)
    (List.length conflicts);
  List.iter
    (fun (id, o) ->
      let name = Write.id_to_string id in
      Alcotest.(check bool) (name ^ ": read log's final outcome") true
        (Wlog.final_outcome reader id = Some o);
      Alcotest.(check bool) (name ^ ": unread log's final outcome") true
        (Wlog.final_outcome blind id = Some o))
    outcomes;
  List.iter
    (fun (name, log) ->
      Alcotest.(check bool) (name ^ ": committed image") true
        (Db.equal (Wlog.committed_db log) db);
      Alcotest.(check bool) (name ^ ": image") true (Db.equal (Wlog.db log) db);
      Alcotest.(check (list string)) (name ^ ": audit") [] (Wlog.invariant_violations log))
    [ ("read", reader); ("unread", blind) ]

(* A CSN commit out of timestamp order after a read reverts the applied
   suffix once and commits onto the committed image: the images and
   outcomes are those of the committed order followed by the rest of the
   suffix in timestamp order, exactly as for a log that never read. *)
let test_one_image_commit_ids_after_read () =
  let a = book ~origin:0 ~seq:1 ~t:1.0 and b = book ~origin:1 ~seq:1 ~t:2.0 in
  let c = book ~origin:0 ~seq:2 ~t:3.0 and d = book ~origin:2 ~seq:1 ~t:4.0 in
  let run ~read =
    let log = seat_log ~seats:2 in
    ignore (Wlog.insert_batch log [ a; b; c; d ]);
    if read then begin
      ignore (Wlog.db log);
      Alcotest.(check bool) "a books first" true
        (Wlog.outcome log a.Write.id = Some (Op.Applied (Value.Float 1.0)))
    end;
    let before = Wlog.rollbacks log in
    Alcotest.(check int) "two commit" 2 (Wlog.commit_ids log [ d.Write.id; b.Write.id ]);
    Alcotest.(check int) "one rollback" (before + 1) (Wlog.rollbacks log);
    log
  in
  let expect log =
    let committed = Wlog.committed_db log in
    Alcotest.(check (float 0.0)) "d took a seat first" 1.0 (Db.get_float committed "seat.2.1");
    Alcotest.(check (float 0.0)) "then b" 0.0 (Db.get_float committed "seat.1.1");
    Alcotest.(check bool) "final d" true
      (Wlog.final_outcome log d.Write.id = Some (Op.Applied (Value.Float 1.0)));
    Alcotest.(check bool) "final b" true
      (Wlog.final_outcome log b.Write.id = Some (Op.Applied (Value.Float 0.0)));
    List.iter
      (fun (w : Write.t) ->
        Alcotest.(check bool) (Write.id_to_string w.id ^ " now conflicts") true
          (Wlog.outcome log w.id = Some (Op.Conflict "full")))
      [ a; c ];
    Alcotest.(check bool) "image = committed image" true
      (Db.equal (Wlog.db log) committed);
    Alcotest.(check (list string)) "audit" [] (Wlog.invariant_violations log)
  in
  let read = run ~read:true and unread = run ~read:false in
  expect read;
  expect unread;
  Alcotest.(check bool) "same committed image" true
    (Db.equal (Wlog.committed_db read) (Wlog.committed_db unread))

(* A snapshot taken while only part of the suffix is applied is the
   committed image, and taking it leaves the image as it was. *)
let test_one_image_snapshot_partly_applied () =
  let log = seat_log ~seats:3 in
  let ws = List.init 5 (fun i -> book ~origin:(i mod 3) ~seq:((i / 3) + 1) ~t:(float_of_int (i + 1))) in
  ignore (Wlog.insert_batch log ws);
  Alcotest.(check int) "two commit" 2 (Wlog.commit_stable log ~cover:[| 2.5; 2.5; 2.5 |]);
  ignore (Wlog.db log);
  (* A tail arrival after the read: the suffix is applied up to it. *)
  ignore (Wlog.insert_batch log [ book ~origin:2 ~seq:2 ~t:6.0 ]);
  let committed, _ = replay_committed log ~seats:3 in
  let snap = Wlog.snapshot log in
  Alcotest.(check bool) "snapshot = committed image" true (Db.equal snap.Wlog.snap_db committed);
  Alcotest.(check (float 0.0)) "one seat left after the commits" 1.0
    (Db.get_float snap.Wlog.snap_db "seats");
  Alcotest.(check (float 0.0)) "the image still holds the suffix" 0.0
    (Db.get_float (Wlog.db log) "seats");
  Alcotest.(check (list string)) "audit" [] (Wlog.invariant_violations log);
  let fresh = seat_log ~seats:3 in
  Alcotest.(check bool) "installs" true (Wlog.install_snapshot fresh snap);
  Alcotest.(check bool) "installed committed image" true
    (Db.equal (Wlog.committed_db fresh) committed)

(* Reading the committed image works on a copy: no rollback, and the next
   read of the image applies nothing again. *)
let test_one_image_committed_db_undisturbed () =
  let counts = Hashtbl.create 16 in
  let log =
    Wlog.create_bounded ~procs:(counting_procs counts) ~bounded:false
      ~replicas:2 ~initial:[]
  in
  let w ~origin ~seq ~t = mk ~op:(Op.Named ("count", Value.Int ((origin * 10) + seq))) ~origin ~seq ~t () in
  ignore (Wlog.insert_batch log [ w ~origin:0 ~seq:1 ~t:1.0; w ~origin:1 ~seq:1 ~t:2.0 ]);
  ignore (Wlog.commit_stable log ~cover:[| 1.5; 1.5 |]);
  ignore (Wlog.insert_batch log [ w ~origin:0 ~seq:2 ~t:3.0; w ~origin:1 ~seq:2 ~t:4.0 ]);
  let image = Db.copy (Wlog.db log) in
  let rollbacks = Wlog.rollbacks log in
  Hashtbl.reset counts;
  let committed = Wlog.committed_db log in
  Alcotest.(check (float 0.0)) "committed image holds the one commit" 1.0
    (Db.get_float committed "n");
  Alcotest.(check bool) "the next read applies nothing" true
    (Db.equal (Wlog.db log) image && Hashtbl.length counts = 0);
  Alcotest.(check int) "no rollback" rollbacks (Wlog.rollbacks log);
  Alcotest.(check (float 0.0)) "the image still holds all four" 4.0
    (Db.get_float (Wlog.db log) "n")

let extra_suite =
  [
    Alcotest.test_case "csn final outcome order" `Quick test_csn_final_outcome_order;
    Alcotest.test_case "apply on read counts" `Quick test_apply_on_read_counts;
    Alcotest.test_case "snapshot lists committed conits" `Quick test_snapshot_values;
    Alcotest.test_case "straggler: writes_since = reference" `Quick
      test_straggler_writes_since;
    Alcotest.test_case "tally handle survives snapshot" `Quick
      test_tally_handle_survives_snapshot;
    Alcotest.test_case "one image: read or not, same commits" `Quick
      test_one_image_read_or_not;
    Alcotest.test_case "one image: commit_ids after a read" `Quick
      test_one_image_commit_ids_after_read;
    Alcotest.test_case "one image: snapshot partly applied" `Quick
      test_one_image_snapshot_partly_applied;
    Alcotest.test_case "one image: committed_db undisturbed" `Quick
      test_one_image_committed_db_undisturbed;
  ]

let suite = base_suite @ extra_suite
