(* Model-based testing of Wlog: the incremental implementation (rollback
   short-cuts, cached conit values, pending buffers, truncation) is compared
   against a naive reference model that recomputes everything from first
   principles after every step. *)

open Tact_store

let feq a b = Float.abs (a -. b) < 1e-6

(* An order-sensitive write procedure: applies only while the key stays under
   a cap, so reorderings flip which writes conflict — exercising outcome
   re-recording across rollback/reapply. *)
let procs =
  [
    ( "cap_add",
      fun arg db ->
        match arg with
        | Value.List [ Value.Str key; Value.Float limit; Value.Float delta ] ->
          let v = Db.get_float db key in
          if v +. delta > limit then Op.Conflict "over cap"
          else begin
            Db.set db key (Value.Float (v +. delta));
            Op.Applied (Value.Float (v +. delta))
          end
        | _ -> Op.Conflict "bad argument" );
  ]

let create ~replicas ~initial =
  Wlog.create_bounded ~procs ~bounded:false ~replicas ~initial

(* The stability rule, recomputed naively for the reference models: no
   origin can still produce a write that precedes [w]. *)
let stable ~cover (w : Write.t) =
  let ok = ref true in
  Array.iteri
    (fun o c ->
      if o <> w.id.origin then
        if c < w.accept_time || (c = w.accept_time && o < w.id.origin) then ok := false)
    cover;
  !ok

(* ------------------------------------------------------------------ *)
(* The reference model: a bag of known writes, a commit frontier, and   *)
(* recomputation from scratch for every query.                          *)

module Model = struct
  type t = {
    replicas : int;
    mutable offered : Write.t list;  (** everything ever offered, unordered *)
    mutable committed : Write.id list;  (** commit order *)
  }

  let create ~replicas = { replicas; offered = []; committed = [] }

  let insert t (w : Write.t) =
    if not (List.exists (fun (x : Write.t) -> x.id = w.id) t.offered) then
      t.offered <- w :: t.offered

  (* The log's knowledge is the maximal per-origin contiguous prefix of what
     was offered (gapped writes sit in its pending buffer until the gap
     fills). *)
  let known t =
    List.filter
      (fun (w : Write.t) ->
        let rec prefix_complete seq =
          seq = 0
          || List.exists
               (fun (x : Write.t) -> x.id.origin = w.id.origin && x.id.seq = seq)
               t.offered
             && prefix_complete (seq - 1)
        in
        prefix_complete w.id.seq)
      t.offered

  let canonical t = List.sort Write.ts_compare (known t)

  let tentative t =
    List.filter
      (fun (w : Write.t) -> not (List.mem w.id t.committed))
      (canonical t)

  let commit_stable t ~cover =
    let rec take = function
      | w :: rest when stable ~cover w ->
        t.committed <- t.committed @ [ w.Write.id ];
        take rest
      | _ -> ()
    in
    take (tentative t)

  let db t =
    let image = Db.create [] in
    let by_id id = List.find (fun (w : Write.t) -> w.id = id) t.offered in
    List.iter (fun id -> ignore (Op.apply ~procs (by_id id).op image)) t.committed;
    List.iter (fun (w : Write.t) -> ignore (Op.apply ~procs w.op image)) (tentative t);
    image

  let conit_value t conit =
    List.fold_left (fun acc w -> acc +. Write.nweight w conit) 0.0 (known t)

  let tentative_oweight t conit =
    List.fold_left (fun acc w -> acc +. Write.oweight w conit) 0.0
      (List.filter (fun w -> Write.affects_conit w conit) (tentative t))
end

(* ------------------------------------------------------------------ *)

let conits = [| "a"; "b"; "c" |]

let gen_pool rng ~replicas =
  let pool = ref [] in
  let clock = Array.make replicas 0.0 in
  for origin = 0 to replicas - 1 do
    let count = 1 + Tact_util.Prng.int rng 10 in
    for seq = 1 to count do
      clock.(origin) <- clock.(origin) +. Tact_util.Prng.float rng 4.0 +. 0.01;
      let conit = Tact_util.Prng.pick rng conits in
      let nw = Tact_util.Prng.uniform_in rng ~lo:(-2.0) ~hi:2.0 in
      let ow = Tact_util.Prng.float rng 2.0 in
      pool :=
        Write.make ~id:{ origin; seq }
          ~accept_time:clock.(origin)
          ~op:(Op.Add ("k" ^ conit, 1.0))
          ~affects:[ { Write.conit; nweight = nw; oweight = ow } ]
        :: !pool
    done
  done;
  Array.of_list !pool

let agree log model =
  Db.equal (Wlog.db log) (Model.db model)
  && List.map (fun (w : Write.t) -> w.Write.id) (Wlog.tentative log)
     = List.map (fun (w : Write.t) -> w.Write.id) (Model.tentative model)
  && Array.for_all
       (fun c ->
         feq (Wlog.conit_value log c) (Model.conit_value model c)
         && feq (Wlog.tentative_oweight log c) (Model.tentative_oweight model c))
       conits

let run_scenario seed =
  let rng = Tact_util.Prng.create ~seed in
  let replicas = 3 in
  let pool = gen_pool rng ~replicas in
  Tact_util.Prng.shuffle rng pool;
  let log = Wlog.create ~replicas ~initial:[] in
  let model = Model.create ~replicas in
  let max_time =
    Array.fold_left (fun acc (w : Write.t) -> Float.max acc w.accept_time) 0.0 pool
  in
  let ok = ref true in
  Array.iteri
    (fun i w ->
      (* Random action mix: mostly inserts, some batch inserts, some commits. *)
      (match Tact_util.Prng.int rng 10 with
      | 0 | 1 ->
        (* Stability commit with a random cover. *)
        let cover =
          Array.init replicas (fun _ -> Tact_util.Prng.float rng (max_time +. 1.0))
        in
        ignore (Wlog.commit_stable log ~cover);
        Model.commit_stable model ~cover
      | 2 ->
        (* Small batch: this write plus the next ones already offered get
           re-offered (duplicates must be ignored). *)
        let batch =
          [ w ] @ (if i > 0 then [ pool.(i - 1) ] else []) @ [ w ]
        in
        ignore (Wlog.insert_batch log batch);
        List.iter (Model.insert model) batch
      | _ ->
        ignore (Wlog.insert log w);
        Model.insert model w);
      if not (agree log model) then ok := false)
    pool;
  (* Finish: insert everything (covering buffered gaps), commit fully. *)
  ignore (Wlog.insert_batch log (Array.to_list pool));
  Array.iter (Model.insert model) pool;
  let full = Array.make replicas (max_time +. 1.0) in
  ignore (Wlog.commit_stable log ~cover:full);
  Model.commit_stable model ~cover:full;
  !ok && agree log model
  && Wlog.committed_count log = List.length model.Model.committed
  && List.length (Wlog.tentative log) = 0

let test_model_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"wlog agrees with the naive reference model"
       ~count:120
       QCheck.(int_bound 1_000_000)
       run_scenario)

(* Truncation against the model: after truncation the queryable state is
   unchanged; only diff service shrinks. *)
let test_truncation_preserves_state =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"truncation never changes observable state" ~count:60
       QCheck.(pair (int_bound 1_000_000) (int_bound 10))
       (fun (seed, keep) ->
         let rng = Tact_util.Prng.create ~seed in
         let pool = gen_pool rng ~replicas:3 in
         let log = Wlog.create ~replicas:3 ~initial:[] in
         Array.iter (fun w -> ignore (Wlog.insert log w)) pool;
         let max_time =
           Array.fold_left (fun acc (w : Write.t) -> Float.max acc w.accept_time) 0.0 pool
         in
         ignore (Wlog.commit_stable log ~cover:(Array.make 3 (max_time +. 1.0)));
         let before_db = Db.copy (Wlog.db log) in
         let before_count = Wlog.committed_count log in
         ignore (Wlog.truncate log ~keep);
         Db.equal (Wlog.db log) before_db
         && Wlog.committed_count log = before_count
         && Wlog.retained log <= max keep before_count))

(* ------------------------------------------------------------------ *)
(* Widened differential scenarios: a thousand-plus operations per seed,
   order-sensitive write procedures (whose outcomes flip under reordering),
   duplicate and gapped deliveries, both commitment schemes. *)

(* A faster reference model (hash-indexed rather than quadratic list scans)
   so the scenarios can afford hundreds of writes; still recomputes the
   database image and every outcome from scratch at each checkpoint. *)
module Bigmodel = struct
  type t = {
    replicas : int;
    by_id : (Write.id, Write.t) Hashtbl.t;
    mutable committed : Write.id list;  (** commit order, oldest first *)
    committed_set : (Write.id, unit) Hashtbl.t;
  }

  let create ~replicas =
    {
      replicas;
      by_id = Hashtbl.create 64;
      committed = [];
      committed_set = Hashtbl.create 64;
    }

  let insert t (w : Write.t) =
    if not (Hashtbl.mem t.by_id w.id) then Hashtbl.replace t.by_id w.id w

  (* The contiguous per-origin prefixes of everything offered. *)
  let known t =
    let out = ref [] in
    for origin = 0 to t.replicas - 1 do
      let seq = ref 1 in
      while Hashtbl.mem t.by_id { Write.origin; seq = !seq } do
        out := Hashtbl.find t.by_id { Write.origin; seq = !seq } :: !out;
        incr seq
      done
    done;
    !out

  let canonical t = List.sort Write.ts_compare (known t)

  let tentative t =
    List.filter
      (fun (w : Write.t) -> not (Hashtbl.mem t.committed_set w.id))
      (canonical t)

  let commit t id =
    t.committed <- t.committed @ [ id ];
    Hashtbl.replace t.committed_set id ()

  let commit_stable t ~cover =
    let rec take = function
      | (w : Write.t) :: rest when stable ~cover w ->
        commit t w.id;
        take rest
      | _ -> ()
    in
    take (tentative t)

  let commit_ids t ids =
    List.iter
      (fun id ->
        if Hashtbl.mem t.by_id id && not (Hashtbl.mem t.committed_set id) then
          commit t id)
      ids

  (* Recompute both images and every write's outcome from first principles:
     committed writes in commit order, then the tentative suffix in timestamp
     order. *)
  let replay t =
    let image = Db.create [] in
    let outcomes = Hashtbl.create 64 in
    List.iter
      (fun id ->
        Hashtbl.replace outcomes id
          (Op.apply ~procs (Hashtbl.find t.by_id id).Write.op image))
      t.committed;
    let committed_image = Db.copy image in
    List.iter
      (fun (w : Write.t) -> Hashtbl.replace outcomes w.id (Op.apply ~procs w.op image))
      (tentative t);
    (image, committed_image, outcomes)

  let conit_value t conit =
    List.fold_left (fun acc w -> acc +. Write.nweight w conit) 0.0 (known t)

  let tentative_oweight t conit =
    List.fold_left (fun acc w -> acc +. Write.oweight w conit) 0.0
      (List.filter (fun w -> Write.affects_conit w conit) (tentative t))
end

let cap_add key limit delta =
  Op.Named ("cap_add", Value.List [ Value.Str key; Value.Float limit; Value.Float delta ])

let gen_big_pool rng ~replicas =
  let pool = ref [] in
  let clock = Array.make replicas 0.0 in
  for origin = 0 to replicas - 1 do
    let count = 100 + Tact_util.Prng.int rng 41 in
    for seq = 1 to count do
      clock.(origin) <- clock.(origin) +. Tact_util.Prng.float rng 2.0 +. 0.01;
      let conit = Tact_util.Prng.pick rng conits in
      let key = "k" ^ conit in
      let op =
        match Tact_util.Prng.int rng 4 with
        | 0 -> Op.Add (key, Tact_util.Prng.uniform_in rng ~lo:(-1.0) ~hi:1.0)
        | 1 -> Op.Set (key, Value.Float (Tact_util.Prng.float rng 10.0))
        | 2 -> Op.Append (key ^ ".log", Value.Int seq)
        | _ -> cap_add key 25.0 1.0
      in
      let nw = Tact_util.Prng.uniform_in rng ~lo:(-2.0) ~hi:2.0 in
      let ow = Tact_util.Prng.float rng 2.0 in
      pool :=
        Write.make ~id:{ origin; seq }
          ~accept_time:clock.(origin) ~op
          ~affects:[ { Write.conit; nweight = nw; oweight = ow } ]
        :: !pool
    done
  done;
  Array.of_list !pool

let agree_big log m =
  let db_m, cdb_m, out_m = Bigmodel.replay m in
  Db.equal (Wlog.db log) db_m
  && Db.equal (Wlog.committed_db log) cdb_m
  && Wlog.tentative_ids log
     = List.map (fun (w : Write.t) -> w.Write.id) (Bigmodel.tentative m)
  && Array.for_all
       (fun c ->
         feq (Wlog.conit_value log c) (Bigmodel.conit_value m c)
         && feq (Wlog.tentative_oweight log c) (Bigmodel.tentative_oweight m c))
       conits
  && List.for_all
       (fun (w : Write.t) -> Wlog.outcome log w.id = Some (Hashtbl.find out_m w.id))
       (Bigmodel.tentative m)
  && List.for_all
       (fun id -> Wlog.final_outcome log id = Some (Hashtbl.find out_m id))
       m.Bigmodel.committed

let run_big_scenario ~scheme seed =
  let rng = Tact_util.Prng.create ~seed in
  let replicas = 4 in
  let pool = gen_big_pool rng ~replicas in
  Tact_util.Prng.shuffle rng pool;
  let log = create ~replicas ~initial:[] in
  let m = Bigmodel.create ~replicas in
  let max_time =
    Array.fold_left (fun acc (w : Write.t) -> Float.max acc w.accept_time) 0.0 pool
  in
  let ops = ref 0 in
  let ok = ref true in
  let checkpoint () = if not (agree_big log m) then ok := false in
  let commit_some () =
    match scheme with
    | `Stability ->
      let cover =
        Array.init replicas (fun _ -> Tact_util.Prng.float rng (max_time +. 1.0))
      in
      incr ops;
      ignore (Wlog.commit_stable log ~cover);
      Bigmodel.commit_stable m ~cover
    | `Csn ->
      (* Commit a short slice of the tentative suffix, sometimes in reversed
         (non-timestamp) order to force commit-order divergence. *)
      let tent = Bigmodel.tentative m in
      let take = Tact_util.Prng.int rng 4 in
      let ids =
        List.filteri (fun j _ -> j < take) tent
        |> List.map (fun (w : Write.t) -> w.Write.id)
      in
      let ids = if Tact_util.Prng.int rng 3 = 0 then List.rev ids else ids in
      incr ops;
      ignore (Wlog.commit_ids log ids);
      Bigmodel.commit_ids m ids
  in
  Array.iteri
    (fun i w ->
      (match Tact_util.Prng.int rng 12 with
      | 0 | 1 ->
        commit_some ();
        incr ops;
        ignore (Wlog.insert log w);
        Bigmodel.insert m w
      | 2 | 3 ->
        (* Re-offer a batch laced with duplicates. *)
        let batch =
          [ w; w ] @ if i > 2 then [ pool.(i - 1); pool.(i / 2) ] else []
        in
        ops := !ops + List.length batch;
        ignore (Wlog.insert_batch log batch);
        List.iter (Bigmodel.insert m) batch
      | _ ->
        incr ops;
        ignore (Wlog.insert log w);
        Bigmodel.insert m w);
      if i mod 29 = 0 then checkpoint ())
    pool;
  (* Fill every remaining gap, then commit everything. *)
  ops := !ops + Array.length pool;
  ignore (Wlog.insert_batch log (Array.to_list pool));
  Array.iter (Bigmodel.insert m) pool;
  (match scheme with
  | `Stability ->
    let full = Array.make replicas (max_time +. 1.0) in
    ignore (Wlog.commit_stable log ~cover:full);
    Bigmodel.commit_stable m ~cover:full
  | `Csn ->
    let ids = List.map (fun (w : Write.t) -> w.Write.id) (Bigmodel.tentative m) in
    ignore (Wlog.commit_ids log ids);
    Bigmodel.commit_ids m ids);
  checkpoint ();
  !ok
  && !ops >= 1000
  && Wlog.tentative log = []
  && Wlog.committed_count log = List.length m.Bigmodel.committed

let test_big ~scheme name seed =
  Alcotest.test_case (Printf.sprintf "%s (seed %d)" name seed) `Quick (fun () ->
      Alcotest.(check bool) "big differential scenario" true
        (run_big_scenario ~scheme seed))

let big_suite =
  List.concat_map
    (fun seed ->
      [
        test_big ~scheme:`Stability "1k+ ops, stability commits" seed;
        test_big ~scheme:`Csn "1k+ ops, CSN commits" seed;
      ])
    [ 11; 23; 37; 58; 71 ]

(* Apply on read against the model: batches (shuffled, gapped, laced with
   re-offers of earlier writes) go in without any read, interleaved with
   commits and single inserts, and the image and outcomes are compared only
   at random read points — so a comparison sees whatever the log deferred
   since the last one. *)
let run_read_point_scenario ~scheme seed =
  let rng = Tact_util.Prng.create ~seed in
  let replicas = 4 in
  let pool = gen_big_pool rng ~replicas in
  Tact_util.Prng.shuffle rng pool;
  let log = create ~replicas ~initial:[] in
  let m = Bigmodel.create ~replicas in
  let max_time =
    Array.fold_left (fun acc (w : Write.t) -> Float.max acc w.accept_time) 0.0 pool
  in
  let ok = ref true in
  let reads = ref 0 in
  let read () =
    incr reads;
    if not (agree_big log m) then ok := false
  in
  let commit_some () =
    match scheme with
    | `Stability ->
      let cover =
        Array.init replicas (fun _ -> Tact_util.Prng.float rng (max_time +. 1.0))
      in
      ignore (Wlog.commit_stable log ~cover);
      Bigmodel.commit_stable m ~cover
    | `Csn ->
      let ids =
        Bigmodel.tentative m
        |> List.filteri (fun j _ -> j < Tact_util.Prng.int rng 4)
        |> List.map (fun (w : Write.t) -> w.Write.id)
      in
      let ids = if Tact_util.Prng.bool rng then List.rev ids else ids in
      ignore (Wlog.commit_ids log ids);
      Bigmodel.commit_ids m ids
  in
  let i = ref 0 in
  let n = Array.length pool in
  while !i < n do
    (match Tact_util.Prng.int rng 10 with
    | 0 -> commit_some ()
    | 1 ->
      incr i;
      ignore (Wlog.insert log pool.(!i - 1));
      Bigmodel.insert m pool.(!i - 1)
    | _ ->
      let len = min (1 + Tact_util.Prng.int rng 6) (n - !i) in
      let batch =
        Array.to_list (Array.sub pool !i len)
        @ List.init (Tact_util.Prng.int rng 3) (fun _ ->
              pool.(Tact_util.Prng.int rng (!i + len)))
      in
      i := !i + len;
      ignore (Wlog.insert_batch log batch);
      List.iter (Bigmodel.insert m) batch);
    if Tact_util.Prng.int rng 8 = 0 then read ()
  done;
  commit_some ();
  read ();
  !ok && !reads > 1

let test_read_points ~scheme name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:20
       QCheck.(int_bound 1_000_000)
       (run_read_point_scenario ~scheme))

(* insert_batch returns the writes new to the log in timestamp order,
   whatever order the batch came in: the pool, shuffled, is cut into
   batches offered either sorted or as they fall.  Batches leave per-origin
   gaps that later batches fill, releasing pending writes that interleave
   with the filling batch's own.  The result must be the model's newly
   known writes, sorted, and the log must keep agreeing with the model. *)
let run_batch_order seed =
  let rng = Tact_util.Prng.create ~seed in
  let replicas = 3 in
  let pool = gen_pool rng ~replicas in
  Tact_util.Prng.shuffle rng pool;
  let log = create ~replicas ~initial:[] in
  let model = Model.create ~replicas in
  let ids ws = List.map (fun (w : Write.t) -> w.Write.id) ws in
  let ok = ref true in
  let i = ref 0 in
  while !i < Array.length pool do
    let len = min (Array.length pool - !i) (1 + Tact_util.Prng.int rng 6) in
    let batch = Array.to_list (Array.sub pool !i len) in
    i := !i + len;
    let batch = if Tact_util.Prng.bool rng then List.sort Write.ts_compare batch else batch in
    let before = ids (Model.known model) in
    List.iter (Model.insert model) batch;
    let fresh =
      List.filter (fun (w : Write.t) -> not (List.mem w.id before)) (Model.known model)
    in
    let got = Wlog.insert_batch log batch in
    if ids got <> ids (List.sort Write.ts_compare fresh) || not (agree log model) then
      ok := false
  done;
  !ok

let test_batch_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"insert_batch: fresh in ts order"
       ~count:120
       QCheck.(int_bound 1_000_000)
       run_batch_order)

(* The fixed case: w0.2 and w0.3 wait in the pending buffer; a sorted batch
   fills their gap, and they interleave with the batch's writes from
   origin 1. *)
let test_batch_drain_interleaves () =
  let log = create ~replicas:2 ~initial:[] in
  let w origin seq t =
    Write.make ~id:{ origin; seq } ~accept_time:t ~op:Op.Noop ~affects:[]
  in
  Alcotest.(check int) "gap buffered" 0
    (List.length (Wlog.insert_batch log [ w 0 2 3.0; w 0 3 5.0 ]));
  let got = Wlog.insert_batch log [ w 0 1 1.0; w 1 1 2.0; w 1 2 4.0 ] in
  Alcotest.(check (list string)) "ts order"
    [ "w0.1"; "w1.1"; "w0.2"; "w1.2"; "w0.3" ]
    (List.map (fun (x : Write.t) -> Write.id_to_string x.id) got)

(* ------------------------------------------------------------------ *)
(* The whole per-write lifecycle, with and without [~bounded]: arrivals
   (single, batched, gapped, re-offered), commits under three schemes,
   truncation to a random horizon and snapshot installs, against a model
   that replays everything from first principles.  The model also says
   which per-write state survives: a write this log committed itself has a
   final outcome until truncation or a snapshot install drops it from a
   bounded log, and a write a snapshot folded in is committed with no final
   outcome.  The procedures yield every kind of outcome: floats, conflicts,
   strings, lists, integers and nil. *)

(* Order-sensitive, and never a float: [tag(key, n)] stores [Int n] at the
   key and reports what it overwrote — nil, an even number as a string, or
   anything else in a list with [n]. *)
let tag key n = Op.Named ("tag", Value.List [ Value.Str key; Value.Int n ])

let walk_procs =
  ( "tag",
    fun arg db ->
      match arg with
      | Value.List [ Value.Str key; Value.Int n ] -> (
        let old = Db.get db key in
        Db.set db key (Value.Int n);
        match old with
        | Value.Nil -> Op.Applied Value.Nil
        | Value.Int m when m mod 2 = 0 -> Op.Applied (Value.Str (string_of_int m))
        | v -> Op.Applied (Value.List [ v; Value.Int n ]))
      | _ -> Op.Conflict "bad argument" )
  :: procs

module Walk_model = struct
  type t = {
    pool : (Write.id, Write.t) Hashtbl.t;  (** every write, offered or not *)
    offered : (Write.id, unit) Hashtbl.t;
    upto : int array;  (** per origin: the known prefix *)
    trunc : int array;  (** per origin: the highest seq truncated or folded in *)
    mutable committed : Write.id list;  (** commit order, newest first *)
    committed_set : (Write.id, unit) Hashtbl.t;
    retained : Write.id Queue.t;  (** committed here and still held *)
    no_final : (Write.id, unit) Hashtbl.t;  (** committed, final outcome gone *)
  }

  let create pool ~replicas =
    let by_id = Hashtbl.create 256 in
    Array.iter (fun (w : Write.t) -> Hashtbl.replace by_id w.id w) pool;
    { pool = by_id; offered = Hashtbl.create 256; upto = Array.make replicas 0;
      trunc = Array.make replicas 0; committed = []; committed_set = Hashtbl.create 256;
      retained = Queue.create (); no_final = Hashtbl.create 256 }

  (* An origin's known prefix grows as the log's does: an arrival that
     fills the next seq, or a snapshot install that covers it, releases the
     offered writes right behind it. *)
  let release t o =
    while Hashtbl.mem t.offered { Write.origin = o; seq = t.upto.(o) + 1 } do
      t.upto.(o) <- t.upto.(o) + 1
    done

  let offer t (w : Write.t) =
    Hashtbl.replace t.offered w.id ();
    if w.id.seq = t.upto.(w.id.origin) + 1 then release t w.id.origin

  let known t (id : Write.id) = id.seq <= t.upto.(id.origin)

  let tentative t =
    Hashtbl.fold
      (fun id w acc ->
        if known t id && not (Hashtbl.mem t.committed_set id) then w :: acc else acc)
      t.pool []
    |> List.sort Write.ts_compare

  let commit t id =
    t.committed <- id :: t.committed;
    Hashtbl.replace t.committed_set id ();
    Queue.push id t.retained

  let commit_ids t ids =
    List.iter
      (fun id -> if known t id && not (Hashtbl.mem t.committed_set id) then commit t id)
      ids

  let commit_stable t ~cover =
    let rec take = function
      | (w : Write.t) :: rest when stable ~cover w ->
        commit t w.id;
        take rest
      | _ -> ()
    in
    take (tentative t)

  (* A held committed write leaves the log; a bounded log forgets its
     final outcome with it. *)
  let drop t ~bounded (id : Write.id) =
    t.trunc.(id.origin) <- max t.trunc.(id.origin) id.seq;
    if bounded then Hashtbl.replace t.no_final id ()

  let truncate t ~bounded ~keep =
    while Queue.length t.retained > keep do
      drop t ~bounded (Queue.pop t.retained)
    done

  (* A snapshot of the commit order's first [upto] ids. *)
  let install t ~bounded order ~upto =
    Queue.iter (drop t ~bounded) t.retained;
    Queue.clear t.retained;
    for i = 0 to upto - 1 do
      let id : Write.id = order.(i) in
      if not (Hashtbl.mem t.committed_set id) then begin
        t.committed <- id :: t.committed;
        Hashtbl.replace t.committed_set id ();
        Hashtbl.replace t.no_final id ()
      end;
      t.upto.(id.origin) <- max t.upto.(id.origin) id.seq;
      t.trunc.(id.origin) <- max t.trunc.(id.origin) id.seq
    done;
    Array.iteri (fun o _ -> release t o) t.upto

  (* Both images and every known write's outcome, replayed: the committed
     writes in commit order, then the tentative suffix. *)
  let replay t =
    let image = Db.create [] in
    let outcomes = Hashtbl.create 256 in
    let apply (w : Write.t) = Hashtbl.replace outcomes w.id (Op.apply ~procs:walk_procs w.op image) in
    List.iter (fun id -> apply (Hashtbl.find t.pool id)) (List.rev t.committed);
    let committed_image = Db.copy image in
    List.iter apply (tentative t);
    (image, committed_image, outcomes)
end

let run_bounded_walk ~bounded ~scheme seed =
  let rng = Tact_util.Prng.create ~seed in
  let replicas = 4 in
  let pool = gen_big_pool rng ~replicas in
  (* Every fifth write is a [tag]: its outcomes are never floats. *)
  let pool =
    Array.map
      (fun (w : Write.t) ->
        if w.id.seq mod 5 = 0 then
          Write.make ~id:w.id ~accept_time:w.accept_time ~affects:w.affects
            ~op:(tag ("t" ^ string_of_int (w.id.seq mod 3)) (w.id.seq + w.id.origin))
        else w)
      pool
  in
  (* The system-wide commit order of the snapshot scheme: each origin's
     writes in seq order, the origins interleaved at random. *)
  let order =
    let count = Array.make replicas 0 and next = Array.make replicas 1 in
    Array.iter (fun (w : Write.t) -> count.(w.id.origin) <- count.(w.id.origin) + 1) pool;
    Array.init (Array.length pool) (fun _ ->
        let rec pick () =
          let o = Tact_util.Prng.int rng replicas in
          if next.(o) <= count.(o) then o else pick ()
        in
        let o = pick () in
        next.(o) <- next.(o) + 1;
        { Write.origin = o; seq = next.(o) - 1 })
  in
  let order_pos = ref 0 in
  let arrivals = Array.copy pool in
  Tact_util.Prng.shuffle rng arrivals;
  let log = Wlog.create_bounded ~procs:walk_procs ~bounded ~replicas ~initial:[] in
  let m = Walk_model.create pool ~replicas in
  let max_time = Array.fold_left (fun acc (w : Write.t) -> Float.max acc w.accept_time) 0.0 pool in
  let ok = ref true in
  let fail what = if !ok then (ok := false; Printf.eprintf "lifecycle walk (seed %d): %s\n%!" seed what) in
  let check () =
    let image, committed_image, outcomes = Walk_model.replay m in
    let tent = Walk_model.tentative m in
    if not (Db.equal (Wlog.db log) image) then fail "image";
    if not (Db.equal (Wlog.committed_db log) committed_image) then fail "committed image";
    if Wlog.tentative_ids log <> List.map (fun (w : Write.t) -> w.Write.id) tent then
      fail "tentative ids";
    if Wlog.committed_count log <> List.length m.committed then fail "committed count";
    if List.map (fun (w : Write.t) -> w.Write.id) (Wlog.committed log)
       <> List.of_seq (Queue.to_seq m.retained)
    then fail "retained prefix";
    if Wlog.num_known log <> List.length tent + Queue.length m.retained then fail "num_known";
    let known = List.filter (fun w -> Walk_model.known m w.Write.id) (Array.to_list pool) in
    Array.iter
      (fun c ->
        let sum f l = List.fold_left (fun acc w -> acc +. f w c) 0.0 l in
        if not (feq (Wlog.conit_value log c) (sum Write.nweight known)) then fail "conit value";
        if not (feq (Wlog.tentative_oweight log c)
                  (sum (fun w c -> if Write.affects_conit w c then Write.oweight w c else 0.0) tent))
        then fail "tentative oweight")
      conits;
    List.iter
      (fun (w : Write.t) ->
        if Wlog.outcome log w.id <> Some (Hashtbl.find outcomes w.id) then
          fail ("tentative outcome of " ^ Write.id_to_string w.id);
        if Wlog.final_outcome log w.id <> None then
          fail ("final outcome of tentative " ^ Write.id_to_string w.id))
      tent;
    Array.iter
      (fun (w : Write.t) ->
        let id = w.id in
        if Wlog.known log id <> Walk_model.known m id then fail ("known " ^ Write.id_to_string id);
        if Hashtbl.mem m.committed_set id then begin
          let want =
            if Hashtbl.mem m.no_final id then None else Some (Hashtbl.find outcomes id)
          in
          if Wlog.final_outcome log id <> want then
            fail ("final outcome of " ^ Write.id_to_string id);
          if want <> None && Wlog.outcome log id <> want then
            fail ("outcome of committed " ^ Write.id_to_string id)
        end)
      pool;
    (* Diffs: every vector at or above the truncation horizon is served
       exactly the known writes it lacks; one below it is not servable. *)
    let vec f =
      let v = Version_vector.create replicas in
      for o = 0 to replicas - 1 do Version_vector.set v o (f o) done;
      v
    in
    let upto = m.upto in
    for _ = 1 to 3 do
      let have =
        Array.init replicas (fun o ->
            m.trunc.(o) + Tact_util.Prng.int rng (upto.(o) - m.trunc.(o) + 1))
      in
      let want =
        Array.to_list pool
        |> List.filter (fun (w : Write.t) -> w.id.seq > have.(w.id.origin) && w.id.seq <= upto.(w.id.origin))
        |> List.sort Write.ts_compare
        |> List.map (fun (w : Write.t) -> w.Write.id)
      in
      let v = vec (fun o -> have.(o)) in
      if not (Wlog.can_serve log v) then fail "can_serve above the horizon";
      if List.map (fun (w : Write.t) -> w.Write.id) (Wlog.writes_since log v) <> want then
        fail "writes_since"
    done;
    Array.iteri
      (fun o tr ->
        if tr > 0 && Wlog.can_serve log (vec (fun p -> if p = o then tr - 1 else upto.(p))) then
          fail "can_serve below the horizon")
      m.trunc;
    if Wlog.invariant_violations log <> [] then fail "sanitizer"
  in
  let commit () =
    match scheme with
    | `Stability ->
      let cover = Array.init replicas (fun _ -> Tact_util.Prng.float rng (max_time +. 1.0)) in
      ignore (Wlog.commit_stable log ~cover);
      Walk_model.commit_stable m ~cover
    | `Csn ->
      (* A slice of the suffix, in reverse a third of the time: a later seq
         commits before an earlier one of its origin, which then straggles
         behind truncation. *)
      let k = Tact_util.Prng.int rng 5 in
      let ids =
        Walk_model.tentative m
        |> List.filteri (fun j _ -> j < k)
        |> List.map (fun (w : Write.t) -> w.Write.id)
      in
      let ids = if Tact_util.Prng.int rng 3 = 0 then List.rev ids else ids in
      ignore (Wlog.commit_ids log ids);
      Walk_model.commit_ids m ids
    | `Snapshot ->
      (* The next ids of the system-wide order, up to the first this log
         lacks, after a few it has committed already. *)
      let k = Tact_util.Prng.int rng 8 in
      let rec take i acc =
        if i >= Array.length order || i >= !order_pos + k || not (Walk_model.known m order.(i))
        then (i, List.rev acc)
        else take (i + 1) (order.(i) :: acc)
      in
      let upto, ids = take !order_pos [] in
      let old = List.init (min 2 !order_pos) (fun j -> order.(!order_pos - 1 - j)) in
      order_pos := upto;
      ignore (Wlog.commit_ids log (old @ ids));
      Walk_model.commit_ids m ids
  in
  (* A donor that holds every write commits further along the order; this
     log installs its snapshot. *)
  let install () =
    let donor = Wlog.create_bounded ~procs:walk_procs ~bounded:false ~replicas ~initial:[] in
    ignore (Wlog.insert_batch donor (Array.to_list pool));
    let upto = min (Array.length order) (!order_pos + Tact_util.Prng.int rng 24) in
    ignore (Wlog.commit_ids donor (Array.to_list (Array.sub order 0 upto)));
    let installed = Wlog.install_snapshot log (Wlog.snapshot donor) in
    if installed <> (upto > !order_pos) then fail "install_snapshot verdict";
    if installed then begin
      Walk_model.install m ~bounded order ~upto;
      order_pos := upto
    end
  in
  let next = ref 0 in
  let offer_next () =
    if !next < Array.length arrivals then begin
      let w = arrivals.(!next) in
      incr next;
      ignore (Wlog.insert log w);
      Walk_model.offer m w
    end
  in
  let steps = ref 0 in
  while !next < Array.length arrivals do
    incr steps;
    (match Tact_util.Prng.int rng 12 with
    | 0 | 1 | 2 | 3 -> offer_next ()
    | 4 | 5 ->
      let len = min (1 + Tact_util.Prng.int rng 6) (Array.length arrivals - !next) in
      let batch =
        Array.to_list (Array.sub arrivals !next len)
        @ List.init (Tact_util.Prng.int rng 3) (fun _ ->
              arrivals.(Tact_util.Prng.int rng (!next + len)))
      in
      next := !next + len;
      ignore (Wlog.insert_batch log batch);
      List.iter (Walk_model.offer m) batch
    | 6 | 7 -> commit ()
    | 8 ->
      let keep = Tact_util.Prng.int rng 24 in
      ignore (Wlog.truncate log ~keep);
      Walk_model.truncate m ~bounded ~keep
    | 9 -> if scheme = `Snapshot then install () else commit ()
    | _ -> ignore (Wlog.db log));
    if !steps mod 7 = 0 then check ()
  done;
  (* Commit everything, truncate to a small horizon, and check once more. *)
  (match scheme with
  | `Stability ->
    let cover = Array.make replicas (max_time +. 1.0) in
    ignore (Wlog.commit_stable log ~cover);
    Walk_model.commit_stable m ~cover
  | `Csn ->
    let ids = List.map (fun (w : Write.t) -> w.Write.id) (Walk_model.tentative m) in
    ignore (Wlog.commit_ids log ids);
    Walk_model.commit_ids m ids
  | `Snapshot ->
    let ids = Array.to_list (Array.sub order !order_pos (Array.length order - !order_pos)) in
    ignore (Wlog.commit_ids log ids);
    Walk_model.commit_ids m ids);
  check ();
  ignore (Wlog.truncate log ~keep:3);
  Walk_model.truncate m ~bounded ~keep:3;
  check ();
  !ok && Wlog.tentative_ids log = []

let test_bounded_walk ~bounded ~scheme name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:(Printf.sprintf "lifecycle walk, %s, bounded=%b" name bounded)
       ~count:12
       QCheck.(int_bound 1_000_000)
       (run_bounded_walk ~bounded ~scheme))

let walk_suite =
  List.concat_map
    (fun bounded ->
      [ test_bounded_walk ~bounded ~scheme:`Stability "stability commits";
        test_bounded_walk ~bounded ~scheme:`Csn "CSN stragglers";
        test_bounded_walk ~bounded ~scheme:`Snapshot "snapshot installs" ])
    [ true; false ]

let suite =
  [ test_model_equivalence; test_truncation_preserves_state; test_batch_order;
    Alcotest.test_case "insert_batch: drained gap interleaves" `Quick
      test_batch_drain_interleaves ]
  @ big_suite @ walk_suite
  @ [
      test_read_points ~scheme:`Stability "read points agree, stability commits";
      test_read_points ~scheme:`Csn "read points agree, CSN commits";
    ]
