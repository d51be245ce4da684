(* The verification oracle itself, against hand-computed values on a fully
   deterministic scenario (no jitter, fixed latency). *)

open Tact_sim
open Tact_store
open Tact_core
open Tact_replica

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

(* Scenario (latency 0.1s, no gossip, no jitter):
     t=1.0  W1 at replica 0, nweight 2, oweight 1 on "c"   (returns at 1.0)
     t=2.0  W2 at replica 0, nweight 3, oweight 1 on "c"   (returns at 2.0)
     t=5.0  weak read R at replica 1 — has seen nothing.

   For R and conit "c":
     actual prefix = {W1, W2}  (both returned before 5.0, neither observed)
     NE  = |2 + 3| = 5
     rel = 5 / 5 = 1 -> but with nothing observed, observed value 0
     OE  = 0 at replica 1 (its tentative suffix is empty)
     ST  = age of oldest unseen returned write = 5.0 - 1.0 = 4.0 *)
let build () =
  let sys =
    System.create ~jitter:0.0
      ~topology:(Topology.uniform ~n:2 ~latency:0.1 ~bandwidth:1e9)
      ~config:Config.default ()
  in
  let engine = System.engine sys in
  let submit_w ~delay ~nw =
    Engine.schedule engine ~delay (fun () ->
        Replica.submit_write (System.replica sys 0) ~deps:[]
          ~affects:[ { Write.conit = "c"; nweight = nw; oweight = 1.0 } ]
          ~op:(Op.Add ("x", nw))
          ~k:ignore)
  in
  submit_w ~delay:1.0 ~nw:2.0;
  submit_w ~delay:2.0 ~nw:3.0;
  Engine.schedule engine ~delay:5.0 (fun () ->
      Replica.submit_read (System.replica sys 1)
        ~deps:[ ("c", Bounds.weak) ]
        ~f:(fun db -> Db.get db "x")
        ~k:ignore);
  System.run ~until:30.0 sys;
  sys

let read_record sys =
  match
    List.filter (fun (a : Access.t) -> a.kind = Access.Read) (System.records sys)
  with
  | [ r ] -> r
  | _ -> Alcotest.fail "expected exactly one read"

let test_exact_metrics () =
  let sys = build () in
  let r = read_record sys in
  match Verify.access_metrics sys r with
  | [ m ] ->
    Alcotest.(check bool) "NE = 5" true (feq m.Verify.ne 5.0);
    Alcotest.(check bool) "relative NE = 1" true (feq m.Verify.ne_rel 1.0);
    Alcotest.(check bool) "OE = 0 (empty local suffix)" true (feq m.Verify.oe_tentative 0.0);
    Alcotest.(check bool) "ST = 4 (oldest unseen returned at 1.0)" true
      (feq m.Verify.st 4.0)
  | _ -> Alcotest.fail "one dep expected"

let test_weak_bound_not_violated () =
  let sys = build () in
  Alcotest.(check bool) "weak bound can't be violated" true (Verify.check sys = [])

let test_oe_lcp_counts_interleaved_gap () =
  (* A replica that saw W1 and a later local write W3, but missed W2 that
     interleaves in the canonical order: the LCP order error charges the
     local writes past the gap. *)
  let sys =
    System.create ~jitter:0.0
      ~topology:(Topology.uniform ~n:2 ~latency:10.0 ~bandwidth:1e9)
      ~config:Config.default ()
  in
  let engine = System.engine sys in
  let w ~delay ~replica =
    Engine.schedule engine ~delay (fun () ->
        Replica.submit_write (System.replica sys replica) ~deps:[]
          ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add ("x", 1.0))
          ~k:ignore)
  in
  w ~delay:1.0 ~replica:0;
  (* W1 local *)
  w ~delay:2.0 ~replica:1;
  (* W2 remote, won't arrive for 10s *)
  w ~delay:3.0 ~replica:0;
  (* W3 local, canonically after W2 *)
  Engine.schedule engine ~delay:4.0 (fun () ->
      Replica.submit_read (System.replica sys 0) ~deps:[ ("c", Bounds.weak) ]
        ~f:(fun db -> Db.get db "x")
        ~k:ignore);
  System.run ~until:60.0 sys;
  let r = read_record sys in
  (match Verify.access_metrics sys r with
  | [ m ] ->
    (* Local projection (W1, W3) vs canonical (W1, W2, W3): LCP = (W1);
       W3 lies beyond it. *)
    Alcotest.(check bool) "lcp OE = 1" true (feq m.Verify.oe_lcp 1.0);
    (* Both local writes are tentative (W2 unseen blocks stability). *)
    Alcotest.(check bool) "tentative OE = 2" true (feq m.Verify.oe_tentative 2.0);
    Alcotest.(check bool) "lcp <= tentative" true (m.Verify.oe_lcp <= m.Verify.oe_tentative)
  | _ -> Alcotest.fail "one dep expected")

let test_summarize () =
  let sys = build () in
  Alcotest.(check string) "clean summary" "no violations" (Verify.summarize []);
  ignore sys

let base_suite =
  [
    Alcotest.test_case "exact metrics" `Quick test_exact_metrics;
    Alcotest.test_case "weak bound unviolable" `Quick test_weak_bound_not_violated;
    Alcotest.test_case "lcp OE interleaved gap" `Quick test_oe_lcp_counts_interleaved_gap;
    Alcotest.test_case "summarize" `Quick test_summarize;
  ]

(* Relative error uses the conit's declared initial value (the airline
   seat-pool pattern). *)
let test_relative_error_with_initial () =
  let config =
    {
      Config.default with
      Config.conits = [ Conit.declare ~initial_value:100.0 "seats" ];
    }
  in
  let sys =
    System.create ~jitter:0.0
      ~topology:(Topology.uniform ~n:2 ~latency:0.1 ~bandwidth:1e9)
      ~config ()
  in
  let engine = System.engine sys in
  Engine.schedule engine ~delay:1.0 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[]
        ~affects:[ { Write.conit = "seats"; nweight = -1.0; oweight = 0.0 } ]
        ~op:(Op.Add ("seats", -1.0))
        ~k:ignore);
  Engine.schedule engine ~delay:2.0 (fun () ->
      Replica.submit_read (System.replica sys 1)
        ~deps:[ ("seats", Bounds.weak) ]
        ~f:(fun db -> Db.get db "seats")
        ~k:ignore);
  System.run ~until:30.0 sys;
  let r =
    List.find (fun (a : Access.t) -> a.kind = Access.Read) (System.records sys)
  in
  match Verify.access_metrics sys r with
  | [ m ] ->
    Alcotest.(check bool) "absolute 1" true (feq m.Verify.ne 1.0);
    (* actual value = 100 - 1 = 99 *)
    Alcotest.(check bool) "relative 1/99" true (feq m.Verify.ne_rel (1.0 /. 99.0))
  | _ -> Alcotest.fail "one dep expected"

let initial_suite =
  [ Alcotest.test_case "relative error with initial value" `Quick test_relative_error_with_initial ]

(* The verifier rebuilds each access's local history from its two vectors.
   Differential check against the log itself: every read's [f] captures, at
   service, the tentative suffix ({!Wlog.tentative_ids}) and the committed
   prefix in commit order ({!Wlog.committed}, whole because nothing is
   truncated), and returns a tag naming the capture.  Both order-error
   readings the verifier computes must equal {!Metrics} over the captured
   lists. *)
let rebuilt_matches_log ~scheme ~loss seed =
  let n = 3 in
  let config =
    { Config.default with Config.commit_scheme = scheme; antientropy_period = Some 0.2 }
  in
  let sys =
    System.create ~seed ~loss ~topology:(Topology.uniform ~n ~latency:0.05 ~bandwidth:1e9)
      ~config ()
  in
  let engine = System.engine sys in
  let rng = Tact_util.Prng.create ~seed in
  let captured = Hashtbl.create 128 in
  for k = 1 to 300 do
    let i = Tact_util.Prng.int rng n in
    let r = System.replica sys i in
    let write = Tact_util.Prng.int rng 3 > 0 in
    let oweight = float_of_int (1 + Tact_util.Prng.int rng 3) in
    let deps =
      [ ("c", if Tact_util.Prng.bool rng then Bounds.weak else Bounds.make ~oe:4.0 ()) ]
    in
    Engine.schedule engine
      ~delay:(0.01 *. float_of_int k)
      (fun () ->
        if write then
          Replica.submit_write r ~deps:[]
            ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight } ]
            ~op:(Op.Add ("x", 1.0)) ~k:ignore
        else
          Replica.submit_read r ~deps
            ~f:(fun _ ->
              let log = Replica.log r in
              let ids = List.map (fun (w : Write.t) -> w.Write.id) in
              Hashtbl.replace captured k (Wlog.tentative_ids log, ids (Wlog.committed log));
              Value.Int k)
            ~k:ignore)
  done;
  System.run ~until:30.0 sys;
  let all = System.all_writes sys in
  let by_id = Hashtbl.create 512 in
  List.iter (fun (w : Write.t) -> Hashtbl.replace by_id w.Write.id w) all;
  let writes = List.map (Hashtbl.find by_id) in
  let compared = ref 0 in
  List.iter
    (fun (a : Access.t) ->
      match (a.kind, a.observed_result) with
      | Access.Read, Value.Int k ->
        let tentative_ids, committed_ids = Hashtbl.find captured k in
        let tentative = writes tentative_ids in
        let local = writes committed_ids @ tentative in
        List.iter
          (fun (m : Verify.computed) ->
            incr compared;
            Alcotest.(check (float 1e-9)) "oe_tentative" m.Verify.oe_tentative
              (Metrics.order_error_tentative ~tentative "c");
            Alcotest.(check (float 1e-9)) "oe_lcp" m.Verify.oe_lcp
              (Metrics.order_error_lcp ~ecg:all ~local "c"))
          (Verify.access_metrics sys a)
      | _ -> ())
    (System.records sys);
  Alcotest.(check bool) "reads compared" true (!compared > 50)

let test_rebuilt_matches_log () =
  List.iter
    (fun scheme ->
      List.iter
        (fun loss -> List.iter (rebuilt_matches_log ~scheme ~loss) [ 1; 2 ])
        [ 0.0; 0.1 ])
    [ Config.Stability; Config.Primary 0; Config.Primary 2 ]

(* Records no longer tie the log to history: a system with records on, a
   bounded log and truncation verifies clean, under both commit schemes. *)
let test_bounded_log_with_records () =
  List.iter
    (fun scheme ->
      let sys = Test_truncation.snapshot_workload ~scheme ~bounded_log:true () in
      Alcotest.(check int) "every access recorded" 400 (List.length (System.records sys));
      Alcotest.(check bool) "logs truncated" true
        (Wlog.retained (Replica.log (System.replica sys 0)) <= 5);
      Alcotest.(check bool) "converged" true (System.converged sys);
      let lcp = scheme = Config.Stability in
      Alcotest.(check string) "verifies" "no violations"
        (Verify.summarize (Verify.check ~lcp sys)))
    [ Config.Stability; Config.Primary 0 ]

let rebuild_suite =
  [
    Alcotest.test_case "rebuilt history matches the log" `Quick test_rebuilt_matches_log;
    Alcotest.test_case "bounded log with records verifies" `Quick
      test_bounded_log_with_records;
  ]

let suite = base_suite @ initial_suite @ rebuild_suite
