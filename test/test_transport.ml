(* The TRANSPORT seam and its hardened TCP backend.

   - table-driven supervisor state-machine tests (backoff sequencing with a
     seeded PRNG, retry exhaustion and parking, half-open detection,
     connect deadlines, benign races)
   - decode fuzz: mutated and truncated valid frames through the total
     Batch/Wire/Client decoders — typed errors, never an exception
   - Config.validate diagnostics for the transport knobs
   - Faulty decorator: partition/loss/duplication semantics and seeded
     determinism
   - loopback TCP integration on a single event loop: delivery, parking
     while a peer is down, reconnect-with-resync, poisoning of hostile
     connections, and fd-leak-free repeated create/destroy
   - an in-process 3-daemon nemesis run: a rolling partition plus delay
     spike (lib/check/gen.ml) against live sockets through the
     fault-injecting decorator, with client traffic throughout and a
     convergence + clean-accounting check after the heal
   - System.run teardown: close is idempotent and runs even when a replica
     raises mid-run
   - the replica seam on a recording endpoint: every outgoing sync comes
     from one builder (Per_write or Batched, delta or snapshot fallback,
     push or pull reply), a Batch frame's embedded sender is checked
     against the transport peer, and hostile peer input (wrong shapes, bad
     CSN slices, non-finite floats) is refused and counted
   - Loop timers on the shared heap: (due, seq) order under random delays,
     scheduling order among equal delays *)

open Tact_util
open Tact_store
open Tact_core
open Tact_replica
open Tact_transport
module Sup = Supervisor

let feq a b = Float.abs (a -. b) < 1e-9

let knobs ?(connect_timeout = 1.0) ?(io_timeout = 0.5) ?(backoff_base = 0.1)
    ?(backoff_cap = 5.0) ?(retry_limit = 0) ?(half_open_after = 1.0) () =
  {
    Sup.connect_timeout;
    io_timeout;
    backoff_base;
    backoff_cap;
    retry_limit;
    half_open_after;
  }

(* --- Supervisor: table-driven state machine --------------------------- *)

let down_delay ~now = function
  | Sup.Down { until; _ } -> until -. now
  | st -> Alcotest.failf "expected Down, got %s" (Sup.to_string st)

let test_sup_dial_cycle () =
  let k = knobs () in
  let rng = Prng.create ~seed:1 in
  (* Fresh supervisor dials on the first tick. *)
  let st, acts = Sup.step k rng Sup.initial Sup.Tick ~now:0.0 in
  Alcotest.(check bool) "dialing" true (match st with Sup.Dialing _ -> true | _ -> false);
  Alcotest.(check bool) "dial action" true (acts = [ Sup.Dial ]);
  (* Success: up, and every transition into Up resyncs. *)
  let st, acts = Sup.step k rng st Sup.Dial_ok ~now:0.01 in
  Alcotest.(check bool) "up" true (Sup.is_up st);
  Alcotest.(check bool) "resync on up" true (acts = [ Sup.Resync ]);
  (* Io failure: hang up and back off. *)
  let st, acts = Sup.step k rng st Sup.Io_failed ~now:0.5 in
  Alcotest.(check bool) "down again" true
    (match st with Sup.Down _ -> true | _ -> false);
  Alcotest.(check bool) "hang up" true (acts = [ Sup.Hang_up ]);
  (* First retry delay is exactly the base. *)
  Alcotest.(check bool) "first delay = base" true
    (feq (down_delay ~now:0.5 st) k.Sup.backoff_base)

let test_sup_backoff_sequence () =
  (* Consecutive dial failures follow the decorrelated-jitter schedule:
     d1 = base, d_{i+1} uniform in [base, min cap (3 d_i)] — so the delays
     stay in range and the range itself is allowed to grow. *)
  let k = knobs ~backoff_base:0.1 ~backoff_cap:2.0 () in
  let rng = Prng.create ~seed:7 in
  let rec fails st now acc = function
    | 0 -> List.rev acc
    | i ->
      let st, _ = Sup.step k rng st Sup.Tick ~now in
      (match st with
      | Sup.Dialing _ -> ()
      | _ -> Alcotest.failf "expected Dialing, got %s" (Sup.to_string st));
      let st, _ = Sup.step k rng st Sup.Dial_failed ~now in
      let d = down_delay ~now st in
      fails st (now +. d +. 0.001) (d :: acc) (i - 1)
  in
  let delays = fails Sup.initial 0.0 [] 8 in
  (match delays with
  | d1 :: rest ->
    Alcotest.(check bool) "d1 = base" true (feq d1 k.Sup.backoff_base);
    let prev = ref d1 in
    List.iter
      (fun d ->
        Alcotest.(check bool) "d >= base" true (d >= k.Sup.backoff_base -. 1e-9);
        Alcotest.(check bool) "d <= min cap (3 prev)" true
          (d <= Float.min k.Sup.backoff_cap (Float.max k.Sup.backoff_base (3.0 *. !prev)) +. 1e-9);
        prev := d)
      rest
  | [] -> Alcotest.fail "no delays");
  (* The schedule is a pure function of the seed. *)
  let delays' =
    let rng = Prng.create ~seed:7 in
    let rec go st now acc = function
      | 0 -> List.rev acc
      | i ->
        let st, _ = Sup.step k rng st Sup.Tick ~now in
        let st, _ = Sup.step k rng st Sup.Dial_failed ~now in
        let d = down_delay ~now st in
        go st (now +. d +. 0.001) (d :: acc) (i - 1)
    in
    go Sup.initial 0.0 [] 8
  in
  Alcotest.(check bool) "seeded determinism" true
    (List.for_all2 feq delays delays')

let test_sup_retry_exhaustion_parks () =
  let k = knobs ~retry_limit:3 ~backoff_base:0.05 ~backoff_cap:0.2 () in
  let rng = Prng.create ~seed:3 in
  let st = ref Sup.initial and now = ref 0.0 in
  let tick () =
    let s, a = Sup.step k rng !st Sup.Tick ~now:!now in
    st := s;
    a
  in
  let fail () =
    let s, a = Sup.step k rng !st Sup.Dial_failed ~now:!now in
    st := s;
    a
  in
  for _ = 1 to 3 do
    now := !now +. 0.3;
    ignore (tick ());
    ignore (fail ())
  done;
  Alcotest.(check bool) "parked after limit" true (Sup.is_parked !st);
  (* Parked absorbs stale results and ticks before the probe time... *)
  ignore (fail ());
  Alcotest.(check bool) "still parked" true (Sup.is_parked !st);
  Alcotest.(check bool) "no dial before probe_at" true (tick () = []);
  (* ...and probes once per backoff cap. *)
  now := !now +. k.Sup.backoff_cap +. 0.001;
  Alcotest.(check bool) "probe dial" true (tick () = [ Sup.Dial ]);
  let s, a = Sup.step k rng !st Sup.Dial_ok ~now:!now in
  Alcotest.(check bool) "recovers to up" true (Sup.is_up s);
  Alcotest.(check bool) "resync after park" true (a = [ Sup.Resync ])

let test_sup_half_open () =
  let k = knobs ~half_open_after:1.0 ~io_timeout:0.5 () in
  let rng = Prng.create ~seed:9 in
  let st = Sup.Up { last_rx = 0.0; probed = false } in
  (* Quiet but within the window: nothing. *)
  let st, acts = Sup.step k rng st Sup.Tick ~now:0.9 in
  Alcotest.(check bool) "no probe yet" true (acts = []);
  (* Past the window: suspect half-open, probe once. *)
  let st, acts = Sup.step k rng st Sup.Tick ~now:1.1 in
  Alcotest.(check bool) "probe" true (acts = [ Sup.Send_probe ]);
  let st, acts = Sup.step k rng st Sup.Tick ~now:1.2 in
  Alcotest.(check bool) "probe not repeated" true (acts = []);
  (* The ack refreshes the connection. *)
  let st, _ = Sup.step k rng st Sup.Rx ~now:1.3 in
  (match st with
  | Sup.Up { probed; last_rx } ->
    Alcotest.(check bool) "probe cleared" false probed;
    Alcotest.(check bool) "rx time" true (feq last_rx 1.3)
  | _ -> Alcotest.fail "expected Up");
  (* Silence through probe + io window: the connection is dead. *)
  let st, _ = Sup.step k rng st Sup.Tick ~now:2.4 in
  let st, acts = Sup.step k rng st Sup.Tick ~now:2.9 in
  Alcotest.(check bool) "hang up dead" true (acts = [ Sup.Hang_up ]);
  Alcotest.(check bool) "down after dead" true
    (match st with Sup.Down _ -> true | _ -> false)

let test_sup_connect_deadline () =
  let k = knobs ~connect_timeout:0.5 () in
  let rng = Prng.create ~seed:5 in
  let st, _ = Sup.step k rng Sup.initial Sup.Tick ~now:0.0 in
  (* Mid-dial ticks are quiet. *)
  let st, acts = Sup.step k rng st Sup.Tick ~now:0.3 in
  Alcotest.(check bool) "dial pending" true (acts = []);
  (* The deadline fires: hang up and back off. *)
  let st, acts = Sup.step k rng st Sup.Tick ~now:0.6 in
  Alcotest.(check bool) "deadline hangs up" true (acts = [ Sup.Hang_up ]);
  Alcotest.(check bool) "backs off" true
    (match st with Sup.Down _ -> true | _ -> false)

let test_sup_stale_events_absorbed () =
  let k = knobs () in
  let rng = Prng.create ~seed:11 in
  let up = Sup.Up { last_rx = 0.0; probed = false } in
  List.iter
    (fun ev ->
      let st, acts = Sup.step k rng up ev ~now:0.1 in
      Alcotest.(check bool) "up absorbs stale dial result" true
        (st = up && acts = []))
    [ Sup.Dial_ok; Sup.Dial_failed ];
  let dialing = Sup.Dialing { attempt = 1; deadline = 9.0; prev_delay = 0.0 } in
  List.iter
    (fun ev ->
      let st, acts = Sup.step k rng dialing ev ~now:0.1 in
      Alcotest.(check bool) "dialing absorbs rx/io" true (st = dialing && acts = []))
    [ Sup.Rx; Sup.Io_failed ];
  let parked = Sup.Parked { probe_at = 9.0 } in
  List.iter
    (fun ev ->
      let st, acts = Sup.step k rng parked ev ~now:0.1 in
      Alcotest.(check bool) "parked absorbs failures" true (st = parked && acts = []))
    [ Sup.Dial_failed; Sup.Io_failed ];
  (* Incoming traffic is never connection evidence — the peer's inbound
     socket is not our outbound one, and an Up state without a dialed
     socket would park frames forever.  While backing off it is absorbed;
     while parked it is host-liveness evidence, so the supervisor redials
     immediately instead of waiting out the probe interval. *)
  let down = Sup.Down { attempt = 1; prev_delay = 0.1; until = 9.0 } in
  let st, acts = Sup.step k rng down Sup.Rx ~now:0.1 in
  Alcotest.(check bool) "down + rx absorbed" true (st = down && acts = []);
  let st, acts = Sup.step k rng parked Sup.Rx ~now:0.1 in
  Alcotest.(check bool) "parked + rx -> immediate redial" true
    ((match st with Sup.Dialing { attempt = 1; _ } -> true | _ -> false)
    && acts = [ Sup.Dial ])

(* --- Decode hardening: fuzz over mutated valid frames ----------------- *)

let sample_write seq =
  Write.make ~id:{ Write.origin = 0; seq } ~accept_time:(0.1 *. float_of_int seq)
    ~op:(Op.Add ("x", 1.0))
    ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]

let sample_batch () =
  let vector = Version_vector.create 3 in
  Version_vector.set vector 0 2;
  {
    Batch.from = 0;
    shard = 0;
    kind = Batch.Push;
    vector;
    cover = [| 0.5; 0.25; 0.125 |];
    csn_start = 0;
    csn = [ { Write.origin = 0; seq = 1 } ];
    rate = 1.5;
    payload = Batch.Delta [ sample_write 1; sample_write 2 ];
  }

(* A committed snapshot of a three-replica log holding one write. *)
let sample_snapshot () =
  let log = Wlog.create ~replicas:3 ~initial:[ ("greet", Value.Str "hi") ] in
  ignore (Wlog.accept log (sample_write 1));
  ignore (Wlog.commit_stable log ~cover:[| infinity; infinity; infinity |]);
  Wlog.snapshot log

(* One message of every shape: a Transfer of each kind, a Snapshot that
   answers no round and one that answers round 7, a pull, an ack and a raw
   Batch frame. *)
let sample_wire_msgs () =
  let vector = Version_vector.create 3 in
  Version_vector.set vector 1 4;
  let transfer kind =
    Wire.Transfer
      {
        from = 1;
        writes = [ sample_write 1 ];
        vector;
        cover = [| 0.0; 1.0; 2.0 |];
        csn_start = 1;
        csn = [ { Write.origin = 0; seq = 1 } ];
        rate = 0.5;
        kind;
      }
  in
  let snapshot round =
    Wire.Snapshot
      {
        from = 2;
        snap = sample_snapshot ();
        writes = [ sample_write 2 ];
        vector;
        cover = [| 0.0; 1.0; 2.0 |];
        rate = 0.25;
        round;
      }
  in
  [
    transfer `Push;
    transfer (`Pull_reply 3);
    transfer `Gossip;
    snapshot 0;
    snapshot 7;
    Wire.Pull_req { from = 2; vector; csn_known = 3; round = 1 };
    Wire.Ack { from = 0; vector; csn_known = 2 };
    Wire.Batch_frame (Batch.to_string (sample_batch ()));
  ]

(* Every mutation of a valid frame must come back as [Ok _] or
   [Error (Malformed _ | Too_large _)] — never an exception, which is what
   [guard] turns into a test failure. *)
let guard name f =
  match f () with
  | (_ : bool) -> ()
  | exception e ->
    Alcotest.failf "%s: decoder raised %s" name (Printexc.to_string e)

let fuzz_string name decode s =
  (* All truncations. *)
  for len = 0 to String.length s - 1 do
    guard name (fun () -> match decode (String.sub s 0 len) with Ok _ -> true | Error _ -> false)
  done;
  (* Single-byte corruptions at every offset, three values each. *)
  let b = Bytes.of_string s in
  for i = 0 to Bytes.length b - 1 do
    let orig = Bytes.get b i in
    List.iter
      (fun c ->
        Bytes.set b i c;
        let s' = Bytes.to_string b in
        guard name (fun () -> match decode s' with Ok _ -> true | Error _ -> false))
      [ '\x00'; '\xff'; Char.chr (Char.code orig lxor 0x40) ];
    Bytes.set b i orig
  done;
  (* Random multi-byte garbage. *)
  let rng = Prng.create ~seed:(Hashtbl.hash name) in
  for _ = 1 to 200 do
    let len = Prng.int rng 64 in
    let g = Bytes.init len (fun _ -> Char.chr (Prng.int rng 256)) in
    guard name (fun () ->
        match decode (Bytes.to_string g) with Ok _ -> true | Error _ -> false)
  done

let test_fuzz_batch_decode () =
  let s = Batch.to_string (sample_batch ()) in
  (match Batch.decode s with
  | Ok b -> Alcotest.(check int) "roundtrip from" 0 b.Batch.from
  | Error e -> Alcotest.failf "valid batch rejected: %s" (Transport.error_to_string e));
  fuzz_string "batch" Batch.decode s

let test_fuzz_wire_decode () =
  List.iteri
    (fun i msg ->
      let s = Wire.to_string msg in
      (match Wire.decode s with
      | Ok msg' ->
        Alcotest.(check string)
          (Printf.sprintf "wire msg %d round-trips" i)
          s (Wire.to_string msg')
      | Error e ->
        Alcotest.failf "valid wire msg %d rejected: %s" i
          (Transport.error_to_string e));
      fuzz_string (Printf.sprintf "wire-%d" i) Wire.decode s)
    (sample_wire_msgs ())

let test_fuzz_client_decode () =
  let reqs =
    [
      Client.Submit
        { conit = "c"; nweight = 1.0; oweight = 0.5; op = Op.Add ("x", 2.0) };
      Client.Query { key = "x"; conit = "c"; bounds = Bounds.make ~ne:1.0 () };
      Client.Status;
    ]
  in
  List.iteri
    (fun i req ->
      let s = Client.request_to_string req in
      (* [request_to_string] is [encode_request] into a fresh arena. *)
      let f = Codec.Frame.create () in
      Client.encode_request f req;
      Alcotest.(check string) "encode_request agrees" s (Codec.Frame.contents f);
      (match Client.decode_request s with
      | Ok req' ->
        Alcotest.(check string) "request roundtrip"
          (Client.describe_request req) (Client.describe_request req')
      | Error e ->
        Alcotest.failf "valid request rejected: %s" (Transport.error_to_string e));
      fuzz_string (Printf.sprintf "client-req-%d" i) Client.decode_request s)
    reqs;
  let resps =
    [
      Client.Outcome (Op.Applied (Value.Float 2.0));
      Client.Outcome (Op.Conflict "busy");
      Client.Value (Value.List [ Value.Int 1; Value.Str "s" ]);
      Client.Status_r
        {
          Client.c_id = 1;
          c_n = 3;
          c_up = true;
          c_log_len = 10;
          c_pending = 0;
          c_malformed = 0;
          c_peers_up = 2;
          c_now = 1.5;
        };
      Client.Err "deadline";
    ]
  in
  List.iteri
    (fun i resp ->
      let s = Client.response_to_string resp in
      (match Client.decode_response s with
      | Ok resp' ->
        Alcotest.(check string) "response roundtrip"
          (Client.describe_response resp) (Client.describe_response resp')
      | Error e ->
        Alcotest.failf "valid response rejected: %s" (Transport.error_to_string e));
      fuzz_string (Printf.sprintf "client-resp-%d" i) Client.decode_response s)
    resps;
  (* Direction confusion is caught on the first byte. *)
  Alcotest.(check bool) "request decoder rejects responses" true
    (match Client.decode_request (Client.response_to_string (Client.Err "x")) with
    | Error (Transport.Malformed _) -> true
    | _ -> false)

let test_frame_header_bounds () =
  let hdr = Transport.encode_frame_header ~len:5 in
  Alcotest.(check int) "header size" Transport.frame_header_size (String.length hdr);
  let buf = Bytes.of_string (hdr ^ "hello") in
  (match Transport.decode_frame_header ~max_frame:1024 buf ~off:0 ~avail:(Bytes.length buf) with
  | Ok (Some 5) -> ()
  | _ -> Alcotest.fail "expected complete 5-byte frame");
  (* A frame over the bound is rejected from the header alone — before any
     allocation proportional to the announced length. *)
  let big = Bytes.of_string (Transport.encode_frame_header ~len:(1 lsl 29)) in
  (match Transport.decode_frame_header ~max_frame:1024 big ~off:0 ~avail:(Bytes.length big) with
  | Error (Transport.Too_large { limit = 1024; _ }) -> ()
  | _ -> Alcotest.fail "oversized frame accepted");
  (* A negative / garbage prefix is malformed, not a crash. *)
  let neg = Bytes.make 4 '\xff' in
  (match Transport.decode_frame_header ~max_frame:1024 neg ~off:0 ~avail:4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage prefix accepted");
  (* put_frame writes exactly header ^ payload into an encode arena. *)
  let f = Codec.Frame.create () in
  Transport.put_frame f "hello";
  Alcotest.(check string) "put_frame framing" (hdr ^ "hello") (Codec.Frame.contents f);
  (* The taxonomy's retry split: transient errors are worth a reconnect,
     protocol violations are not. *)
  List.iter
    (fun e -> Alcotest.(check bool) (Transport.error_to_string e) true (Transport.is_transient e))
    [ Transport.Timeout "t"; Transport.Refused "r"; Transport.Reset "r"; Transport.Unreachable "u" ];
  List.iter
    (fun e ->
      Alcotest.(check bool) (Transport.error_to_string e) false (Transport.is_transient e))
    [ Transport.Closed "c"; Transport.Malformed "m"; Transport.Too_large { limit = 1; got = 2 } ]

(* --- Config.validate: transport knob diagnostics ---------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_config_transport_knobs () =
  let base = Config.default in
  let expect_err field patch =
    let config = { base with Config.transport = patch base.Config.transport } in
    match Config.validate ~n:3 config with
    | Ok () -> Alcotest.failf "bad %s accepted" field
    | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s diagnostic names the field (%s)" field msg)
        true
        (contains ~sub:field msg)
  in
  expect_err "connect_timeout" (fun k -> { k with Config.connect_timeout = 0.0 });
  expect_err "io_timeout" (fun k -> { k with Config.io_timeout = Float.nan });
  expect_err "backoff_base" (fun k -> { k with Config.backoff_base = -1.0 });
  expect_err "backoff_cap" (fun k -> { k with Config.backoff_cap = 0.01 });
  expect_err "retry_limit" (fun k -> { k with Config.retry_limit = -2 });
  expect_err "half_open_after" (fun k -> { k with Config.half_open_after = 0.0 });
  expect_err "max_frame" (fun k -> { k with Config.max_frame = 100 });
  expect_err "max_frame" (fun k -> { k with Config.max_frame = 1 lsl 31 });
  expect_err "listen_backlog" (fun k -> { k with Config.listen_backlog = 0 });
  expect_err "drain_timeout" (fun k -> { k with Config.drain_timeout = 0.0 });
  match Config.validate ~n:3 base with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default config rejected: %s" e

(* --- Faulty: the nemesis decorator over injected closures ------------- *)

let run_faulty ~seed ~msgs =
  let delivered = ref [] in
  let timers = Queue.create () in
  let fy =
    Faulty.create ~self:0 ~n:3
      ~schedule:(fun ~delay:_ f -> Queue.push f timers)
      ~send:(fun ~dst payload ->
        delivered := (dst, payload) :: !delivered;
        Ok ())
      ()
  in
  Tact_sim.Links.set_loss (Faulty.links fy) (Some (Prng.create ~seed, 0.3));
  Tact_sim.Links.set_duplication (Faulty.links fy) (Some (Prng.create ~seed:(seed + 1), 0.2));
  for i = 1 to msgs do
    let dst = 1 + (i mod 2) in
    match Faulty.send fy ~dst (Printf.sprintf "m%d" i) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "faulty send failed: %s" (Transport.error_to_string e)
  done;
  Queue.iter (fun f -> f ()) timers;
  (List.rev !delivered, Faulty.stats fy)

let test_faulty_deterministic () =
  let d1, s1 = run_faulty ~seed:42 ~msgs:200 in
  let d2, s2 = run_faulty ~seed:42 ~msgs:200 in
  Alcotest.(check bool) "same delivery sequence" true (d1 = d2);
  Alcotest.(check int) "same losses" s1.Faulty.f_dropped_loss s2.Faulty.f_dropped_loss;
  Alcotest.(check int) "same duplicates" s1.Faulty.f_duplicated s2.Faulty.f_duplicated;
  Alcotest.(check bool) "loss actually fired" true (s1.Faulty.f_dropped_loss > 0);
  Alcotest.(check bool) "duplication actually fired" true (s1.Faulty.f_duplicated > 0);
  let d3, _ = run_faulty ~seed:43 ~msgs:200 in
  Alcotest.(check bool) "different seed, different pattern" true (d1 <> d3)

let test_faulty_partitions () =
  let delivered = ref 0 in
  let fy =
    Faulty.create ~self:0 ~n:4
      ~schedule:(fun ~delay:_ f -> f ())
      ~send:(fun ~dst:_ _ -> incr delivered; Ok ())
      ()
  in
  let send dst = ignore (Faulty.send fy ~dst "m") in
  let links = Faulty.links fy in
  (* Symmetric cut 0|{1,2}: outgoing to both drops, 3 unaffected. *)
  Tact_sim.Links.partition links [ 0 ] [ 1; 2 ];
  send 1; send 2; send 3;
  Alcotest.(check int) "only uncut link delivers" 1 !delivered;
  Alcotest.(check bool) "partitioned observable" true (Tact_sim.Links.partitioned links 0 1);
  (* One-way: cuts only the listed direction from us. *)
  Tact_sim.Links.heal links;
  Tact_sim.Links.partition_oneway links [ 1 ] [ 0 ];
  delivered := 0;
  send 1;
  Alcotest.(check int) "reverse direction unaffected" 1 !delivered;
  Tact_sim.Links.partition_oneway links [ 0 ] [ 1 ];
  send 1;
  Alcotest.(check int) "forward direction cut" 1 !delivered;
  (* heal_between lifts both installs. *)
  Tact_sim.Links.heal_between links [ 0 ] [ 1 ];
  send 1;
  Alcotest.(check int) "healed" 2 !delivered;
  (* clear resets every knob. *)
  Tact_sim.Links.set_loss links (Some (Prng.create ~seed:1, 1.0));
  Tact_sim.Links.set_delay_factor links 10.0;
  Tact_sim.Links.clear links;
  delivered := 0;
  send 1;
  Alcotest.(check int) "clear lifts loss" 1 !delivered;
  Alcotest.(check bool) "bad dst typed error" true
    (match Faulty.send fy ~dst:9 "m" with
    | Error (Transport.Unreachable _) -> true
    | _ -> false)

(* Differential: the simulator's Net and the live Faulty decorator, given
   the same fault actions on one directed link, decide every message alike.
   A fate is read off each side's counters: cut, lost, or delivered once or
   twice. *)
type observed_fate = Cut | Lost | Delivered of int

let test_faulty_matches_net () =
  let module Fault = Tact_check.Fault in
  let msgs = 300 in
  let e = Tact_sim.Engine.create () in
  let net =
    Tact_sim.Net.create e (Tact_sim.Topology.uniform ~n:2 ~latency:0.01 ~bandwidth:1e9) ()
  in
  let net_got = Array.make msgs 0 and live_got = Array.make msgs 0 in
  let timers = Queue.create () in
  let fy =
    Faulty.create ~self:0 ~n:2
      ~schedule:(fun ~delay:_ f -> Queue.push f timers)
      ~send:(fun ~dst:_ payload ->
        let i = int_of_string payload in
        live_got.(i) <- live_got.(i) + 1;
        Ok ())
      ()
  in
  let target links =
    { Fault.links; local = [| 0; 1 |]; replicas = []; link_salt = 0; knob_salt = 0;
      emit = None }
  in
  let targets = [ target (Tact_sim.Net.links net); target (Faulty.links fy) ] in
  let act a = List.iter (fun t -> Fault.apply t a) targets in
  (* A drop shows in a side's counters at send time, a delivery count only
     once the timers have run. *)
  let dropped ~cut ~lost send =
    let c0 = cut () and l0 = lost () in
    send ();
    if cut () > c0 then Some Cut else if lost () > l0 then Some Lost else None
  in
  let net_stat f () = f (Tact_sim.Net.stats net) and live_stat f () = f (Faulty.stats fy) in
  let drops =
    List.init msgs (fun i ->
        if i = 0 then act (Fault.Cut ([ 0 ], [ 1 ]));
        if i = 20 then begin
          act Fault.Heal_all;
          act (Fault.Global_loss { rate = 0.2; salt = 3 });
          act (Fault.Link_loss { src = 0; dst = 1; rate = 0.2; salt = 4 });
          act (Fault.Duplication { rate = 0.2; salt = 5 })
        end;
        if i = 150 then act (Fault.Cut_oneway ([ 0 ], [ 1 ]));
        if i = 170 then act (Fault.Heal_between ([ 0 ], [ 1 ]));
        let n =
          dropped
            ~cut:(net_stat (fun s -> s.Tact_sim.Net.dropped_cut))
            ~lost:(net_stat (fun s -> s.Tact_sim.Net.dropped_loss))
            (fun () ->
              Tact_sim.Net.send net ~src:0 ~dst:1 ~size:10 (fun () ->
                  net_got.(i) <- net_got.(i) + 1))
        in
        let l =
          dropped
            ~cut:(live_stat (fun s -> s.Faulty.f_dropped_cut))
            ~lost:(live_stat (fun s -> s.Faulty.f_dropped_loss))
            (fun () -> ignore (Faulty.send fy ~dst:1 (string_of_int i)))
        in
        (n, l))
  in
  Tact_sim.Engine.run e;
  Queue.iter (fun f -> f ()) timers;
  let fate got = function Some f -> f | None -> Delivered got in
  let count = Array.make 4 0 in
  List.iteri
    (fun i (n, l) ->
      let fn = fate net_got.(i) n and fl = fate live_got.(i) l in
      if fn <> fl then Alcotest.failf "message %d: net and faulty disagree" i;
      let k = match fn with Cut -> 0 | Lost -> 1 | Delivered d -> 1 + d in
      count.(k) <- count.(k) + 1)
    drops;
  Alcotest.(check bool) "every fate occurs" true (Array.for_all (fun c -> c > 0) count)

(* --- Loopback TCP integration ----------------------------------------- *)

let fresh_ports n =
  let fds =
    List.init n (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
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

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let fast_knobs =
  {
    Config.default_transport with
    Config.connect_timeout = 2.0;
    io_timeout = 0.4;
    backoff_base = 0.01;
    backoff_cap = 0.08;
    half_open_after = 0.5;
  }

(* Pump one shared loop until [cond] holds or [wall] seconds pass. *)
let pump loop ~wall cond =
  let deadline = Loop.now loop +. wall in
  while (not (cond ())) && Loop.now loop < deadline do
    ignore (Loop.run_once ~max_wait:0.01 loop)
  done;
  cond ()

let test_tcp_loopback_delivery () =
  let ports = Array.of_list (fresh_ports 3) in
  let addrs = Array.map loopback ports in
  let loop = Loop.create () in
  let rng = Prng.create ~seed:5 in
  let mk self =
    Tcp.create ~loop ~self ~addrs ~knobs:fast_knobs ~rng:(Prng.split rng) ()
  in
  let ts = Array.init 3 mk in
  let got = Array.make 3 [] in
  Array.iteri
    (fun me t ->
      Tcp.set_handler t (fun ~src payload -> got.(me) <- (src, payload) :: got.(me)))
    ts;
  Array.iteri (fun i t -> Tcp.listen t ~addr:addrs.(i)) ts;
  Alcotest.(check int) "mesh size" 3 (Tcp.size ts.(0));
  Alcotest.(check int) "own id" 1 (Tcp.self ts.(1));
  let all_up () =
    Array.to_list ts
    |> List.for_all (fun t ->
           List.for_all
             (fun j -> j = Tcp.self t || Tcp.peer_up t j)
             [ 0; 1; 2 ])
  in
  Alcotest.(check bool) "mesh establishes" true (pump loop ~wall:5.0 all_up);
  (* Every ordered pair exchanges a distinct payload. *)
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j then
        match Tcp.send ts.(i) ~dst:j (Printf.sprintf "%d->%d" i j) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "send: %s" (Transport.error_to_string e)
    done
  done;
  let all_received () = Array.for_all (fun l -> List.length l = 2) got in
  Alcotest.(check bool) "all frames delivered" true
    (pump loop ~wall:5.0 all_received);
  for me = 0 to 2 do
    List.iter
      (fun (src, payload) ->
        Alcotest.(check string) "payload intact"
          (Printf.sprintf "%d->%d" src me)
          payload)
      got.(me)
  done;
  (* Typed errors at the edges. *)
  Alcotest.(check bool) "self unreachable" true
    (match Tcp.send ts.(0) ~dst:0 "x" with Error (Transport.Unreachable _) -> true | _ -> false);
  Alcotest.(check bool) "oversize rejected" true
    (match Tcp.send ts.(0) ~dst:1 (String.make (fast_knobs.Config.max_frame + 1) 'a') with
    | Error (Transport.Too_large _) -> true
    | _ -> false);
  Array.iter Tcp.close ts;
  Alcotest.(check bool) "send after close" true
    (match Tcp.send ts.(0) ~dst:1 "x" with Error (Transport.Closed _) -> true | _ -> false);
  Tcp.close ts.(0) (* idempotent *)

let test_tcp_park_and_reconnect_resync () =
  let ports = Array.of_list (fresh_ports 2) in
  let addrs = Array.map loopback ports in
  let loop = Loop.create () in
  let rng = Prng.create ~seed:6 in
  let t0 = Tcp.create ~loop ~self:0 ~addrs ~knobs:fast_knobs ~rng:(Prng.split rng) () in
  let t1 = ref (Tcp.create ~loop ~self:1 ~addrs ~knobs:fast_knobs ~rng:(Prng.split rng) ()) in
  let got1 = ref [] in
  let resyncs = ref [] in
  Tcp.set_handler !t1 (fun ~src payload -> got1 := (src, payload) :: !got1);
  Tcp.set_on_peer_up t0 (fun peer -> resyncs := peer :: !resyncs);
  Tcp.listen t0 ~addr:addrs.(0);
  Tcp.listen !t1 ~addr:addrs.(1);
  Alcotest.(check bool) "pair up" true
    (pump loop ~wall:5.0 (fun () -> Tcp.peer_up t0 1 && Tcp.peer_up !t1 0));
  Alcotest.(check bool) "initial resync fired" true (List.mem 1 !resyncs);
  (* Kill peer 1 entirely; 0 detects the death and parks traffic. *)
  Tcp.close !t1;
  Alcotest.(check bool) "death detected" true
    (pump loop ~wall:5.0 (fun () -> not (Tcp.peer_up t0 1)));
  Alcotest.(check bool) "supervisor no longer up" false
    (Sup.is_up (Tcp.peer_state t0 1));
  (match Tcp.send t0 ~dst:1 "while-down" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "park send: %s" (Transport.error_to_string e));
  Alcotest.(check bool) "frame parked, not dropped" true
    ((Tcp.stats t0).Tcp.parked_frames >= 1);
  (* Peer restarts on the same address: the supervisor reconnects, replays
     the parked frame, and fires the resync hook again. *)
  resyncs := [];
  got1 := [];
  t1 := Tcp.create ~loop ~self:1 ~addrs ~knobs:fast_knobs ~rng:(Prng.split rng) ();
  Tcp.set_handler !t1 (fun ~src payload -> got1 := (src, payload) :: !got1);
  Tcp.listen !t1 ~addr:addrs.(1);
  Alcotest.(check bool) "reconnects" true
    (pump loop ~wall:5.0 (fun () -> Tcp.peer_up t0 1));
  Alcotest.(check bool) "parked frame replayed" true
    (pump loop ~wall:5.0 (fun () -> List.mem (0, "while-down") !got1));
  Alcotest.(check bool) "resync on reconnect" true (List.mem 1 !resyncs);
  Alcotest.(check bool) "reconnect counted" true ((Tcp.stats t0).Tcp.reconnects >= 1);
  Tcp.close t0;
  Tcp.close !t1

let test_tcp_parks_after_retry_budget () =
  (* Peer 1's address is dead for good: after [retry_limit] refused dials
     the supervisor parks the peer — outgoing traffic is retained, not
     dropped, and the peer is probed once per backoff cap instead of being
     hammered. *)
  let ports = Array.of_list (fresh_ports 2) in
  let addrs = Array.map loopback ports in
  let loop = Loop.create () in
  let parky = { fast_knobs with Config.retry_limit = 2; connect_timeout = 0.3 } in
  let t0 =
    Tcp.create ~loop ~self:0 ~addrs ~knobs:parky ~rng:(Prng.create ~seed:17) ()
  in
  Tcp.listen t0 ~addr:addrs.(0);
  Alcotest.(check bool) "parks after budget" true
    (pump loop ~wall:5.0 (fun () -> Tcp.peer_parked t0 1));
  (match Tcp.send t0 ~dst:1 "still-retained" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "parked send: %s" (Transport.error_to_string e));
  let st = Tcp.stats t0 in
  Alcotest.(check bool) "parked frame retained" true (st.Tcp.parked_frames >= 1);
  Alcotest.(check int) "nothing dropped" 0 st.Tcp.parked_drops;
  Tcp.close t0

let test_tcp_poisons_hostile_bytes () =
  let ports = Array.of_list (fresh_ports 2) in
  let addrs = Array.map loopback ports in
  let loop = Loop.create () in
  let rng = Prng.create ~seed:8 in
  let t0 = Tcp.create ~loop ~self:0 ~addrs ~knobs:fast_knobs ~rng:(Prng.split rng) () in
  Tcp.listen t0 ~addr:addrs.(0);
  (* A stranger speaking garbage instead of the hello. *)
  let hostile = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect hostile addrs.(0);
  let garbage = "GETGARBAGEGARBAGE" in
  ignore (Unix.write_substring hostile garbage 0 (String.length garbage));
  Alcotest.(check bool) "hostile hello poisoned" true
    (pump loop ~wall:5.0 (fun () -> (Tcp.stats t0).Tcp.poisoned >= 1));
  (try Unix.close hostile with Unix.Unix_error _ -> ());
  (* A correct hello followed by an oversized frame announcement. *)
  let sneaky = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sneaky addrs.(0);
  let hello = Bytes.create 16 in
  Bytes.blit_string "TACTPEER" 0 hello 0 8;
  Bytes.set_int64_be hello 8 1L;
  ignore (Unix.write sneaky hello 0 16);
  let huge = Transport.encode_frame_header ~len:(1 lsl 29) in
  ignore (Unix.write_substring sneaky huge 0 (String.length huge));
  Alcotest.(check bool) "oversize announcement poisoned" true
    (pump loop ~wall:5.0 (fun () -> (Tcp.stats t0).Tcp.poisoned >= 2));
  (try Unix.close sneaky with Unix.Unix_error _ -> ());
  Tcp.close t0

(* The dialed direction carries only probe acks (empty frames) back.  A
   fake peer accepts 0's dial and writes 1,000 empty frames in one write:
   the link stays up and nothing is poisoned.  A non-empty frame behind them
   poisons the connection, which also shows every ack before it was read. *)
let test_tcp_dialed_reads_acks () =
  let ports = Array.of_list (fresh_ports 2) in
  let addrs = Array.map loopback ports in
  let loop = Loop.create () in
  let fake = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fake Unix.SO_REUSEADDR true;
  Unix.bind fake addrs.(1);
  Unix.listen fake 4;
  Unix.set_nonblock fake;
  let t0 = Tcp.create ~loop ~self:0 ~addrs ~knobs:fast_knobs ~rng:(Prng.create ~seed:9) () in
  Tcp.listen t0 ~addr:addrs.(0);
  let conn = ref None in
  let accepted () =
    (match Unix.accept fake with
    | fd, _ -> conn := Some fd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    !conn <> None
  in
  Alcotest.(check bool) "dial accepted" true (pump loop ~wall:5.0 accepted);
  let fd = Option.get !conn in
  Alcotest.(check bool) "link up" true (pump loop ~wall:5.0 (fun () -> Tcp.peer_up t0 1));
  let acks = String.concat "" (List.init 1000 (fun _ -> Transport.encode_frame_header ~len:0)) in
  Alcotest.(check int) "acks in one write" (String.length acks)
    (Unix.write_substring fd acks 0 (String.length acks));
  ignore (pump loop ~wall:0.2 (fun () -> false));
  Alcotest.(check bool) "still up after the acks" true (Tcp.peer_up t0 1);
  Alcotest.(check int) "acks poison nothing" 0 (Tcp.stats t0).Tcp.poisoned;
  let frame = Transport.encode_frame_header ~len:1 ^ "x" in
  ignore (Unix.write_substring fd frame 0 (String.length frame));
  Alcotest.(check bool) "non-empty frame poisons" true
    (pump loop ~wall:5.0 (fun () -> (Tcp.stats t0).Tcp.poisoned >= 1));
  Alcotest.(check int) "poisoned once" 1 (Tcp.stats t0).Tcp.poisoned;
  Tcp.close t0;
  Unix.close fd;
  Unix.close fake

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_tcp_no_fd_leak () =
  (* Warm up any lazy fds (stdio, etc.) before baselining. *)
  let ports = Array.of_list (fresh_ports 2) in
  ignore ports;
  let baseline = count_fds () in
  for round = 1 to 5 do
    let ports = Array.of_list (fresh_ports 2) in
    let addrs = Array.map loopback ports in
    let loop = Loop.create () in
    let rng = Prng.create ~seed:round in
    let t0 = Tcp.create ~loop ~self:0 ~addrs ~knobs:fast_knobs ~rng:(Prng.split rng) () in
    let t1 = Tcp.create ~loop ~self:1 ~addrs ~knobs:fast_knobs ~rng:(Prng.split rng) () in
    let got = ref false in
    Tcp.set_handler t1 (fun ~src:_ _ -> got := true);
    Tcp.listen t0 ~addr:addrs.(0);
    Tcp.listen t1 ~addr:addrs.(1);
    ignore (pump loop ~wall:5.0 (fun () -> Tcp.peer_up t0 1));
    ignore (Tcp.send t0 ~dst:1 "ping");
    ignore (pump loop ~wall:5.0 (fun () -> !got));
    Tcp.close t0;
    Tcp.close t1;
    Tcp.close t0 (* double close must not double-free *)
  done;
  Alcotest.(check int) "no fd leaked across create/destroy cycles" baseline
    (count_fds ())

(* --- In-process live system: 3 daemons + nemesis + client traffic ------ *)

(* A minimal blocking-connect / nonblocking-read client for the Serve
   protocol; the servers run in this same thread, so reads poll between
   loop pumps. *)
type tclient = {
  cl_fd : Unix.file_descr;
  mutable cl_buf : Bytes.t;
  mutable cl_len : int;
}

let client_connect addr =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  Unix.set_nonblock fd;
  { cl_fd = fd; cl_buf = Bytes.create 4096; cl_len = 0 }

let client_send c req =
  let payload = Client.request_to_string req in
  let msg = Transport.encode_frame_header ~len:(String.length payload) ^ payload in
  ignore (Unix.write_substring c.cl_fd msg 0 (String.length msg))

let client_try_read c =
  (match Unix.read c.cl_fd c.cl_buf c.cl_len (Bytes.length c.cl_buf - c.cl_len) with
  | 0 -> ()
  | n -> c.cl_len <- c.cl_len + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  match
    Transport.decode_frame_header ~max_frame:Transport.default_max_frame c.cl_buf
      ~off:0 ~avail:c.cl_len
  with
  | Ok (Some len) when c.cl_len >= Transport.frame_header_size + len ->
    let hdr = Transport.frame_header_size in
    let payload = Bytes.sub_string c.cl_buf hdr len in
    let rest = c.cl_len - hdr - len in
    Bytes.blit c.cl_buf (hdr + len) c.cl_buf 0 rest;
    c.cl_len <- rest;
    (match Client.decode_response payload with
    | Ok resp -> Some resp
    | Error e -> Alcotest.failf "client decode: %s" (Transport.error_to_string e))
  | _ -> None

let fleet_config =
  { Config.default with Config.transport = { fast_knobs with Config.drain_timeout = 2.0 } }

(* [n] (default 3) started daemons on fresh loopback ports, their client
   addresses, and a pump that turns every daemon's loop until [cond] holds
   or [wall] seconds pass; returns once the peer mesh is up.  Each daemon is
   created [gap] seconds after the one before it; [on_event] is daemon 0's
   event sink. *)
let serve_fleet ?(n = 3) ?(gap = 0.0) ?on_event ?(config = fleet_config) () =
  let ports = Array.of_list (fresh_ports (2 * n)) in
  let peer_addrs = Array.init n (fun i -> loopback ports.(i)) in
  let client_addrs = Array.init n (fun i -> loopback ports.(i + n)) in
  let serves =
    Array.init n (fun id ->
        if id > 0 && gap > 0.0 then Unix.sleepf gap;
        Serve.create ~request_timeout:8.0
          ?on_event:(if id = 0 then on_event else None)
          ~id ~n ~peer_addrs ~client_addr:client_addrs.(id) ~config
          ~seed:(100 + id) ())
  in
  Array.iter Serve.start serves;
  let pump_all ~wall cond =
    let t0 = Unix.gettimeofday () in
    while (not (cond ())) && Unix.gettimeofday () -. t0 < wall do
      Array.iter (fun s -> ignore (Loop.run_once ~max_wait:0.002 (Serve.loop s))) serves
    done;
    cond ()
  in
  Alcotest.(check bool) "mesh up" true
    (pump_all ~wall:8.0 (fun () ->
         Array.for_all (fun s -> Serve.peers_up s = n - 1) serves));
  (serves, client_addrs, pump_all)

(* Send one request and pump until its response arrives. *)
let client_call ~pump_all c req =
  client_send c req;
  let resp = ref None in
  ignore
    (pump_all ~wall:8.0 (fun () ->
         (match client_try_read c with Some r -> resp := Some r | None -> ());
         !resp <> None));
  !resp

let test_serve_rejects_invalid_config () =
  (* Serve.create runs Config.validate like System.create: a proportional
     budget vector of the wrong length is refused at construction instead of
     dying with an index error at the first push. *)
  let config =
    { Config.default with
      Config.budget_policy = Tact_protocols.Budget.Proportional [| 1.0 |] }
  in
  let ports = Array.of_list (fresh_ports 4) in
  match
    Serve.create ~id:0 ~n:3
      ~peer_addrs:(Array.init 3 (fun i -> loopback ports.(i)))
      ~client_addr:(loopback ports.(3)) ~config ~seed:1 ()
  with
  | _ -> Alcotest.fail "Serve.create accepted short budget weights"
  | exception Invalid_argument m ->
    Alcotest.(check bool) "names Serve.create" true
      (String.starts_with ~prefix:"Serve.create: " m)

(* Daemons started apart share one clock.  Replica 0 is created 0.5 s before
   replica 1 and gossips every 50 ms; then 0's traffic to 1 is cut for
   0.4 s.  A read at 1 bounded by ST 0.2 must not be served from that stale
   state: it parks, its pull's reply is cut too, and it times out.  A clock
   that starts at each loop's creation would put 0's covers 0.5 s in 1's
   future, and 1 would serve the read at once. *)
let test_serve_staggered_clock () =
  let config =
    { fleet_config with
      Config.conits = [ Tact_core.Conit.declare "c" ];
      antientropy_period = Some 0.05 }
  in
  let serves, _, pump_all = serve_fleet ~n:2 ~gap:0.5 ~config () in
  let settle wall =
    let t0 = Unix.gettimeofday () in
    ignore (pump_all ~wall (fun () -> Unix.gettimeofday () -. t0 >= wall))
  in
  settle 0.3;
  Array.iter
    (fun s ->
      Tact_check.Fault.apply (Tact_check.Live.target s)
        (Tact_check.Fault.Cut_oneway ([ 0 ], [ 1 ])))
    serves;
  settle 0.4;
  let r1 = Serve.replica serves.(1) in
  let served = ref false and timed_out = ref false in
  Replica.submit_read r1
    ~deadline:(Loop.now (Serve.loop serves.(1)) +. 0.3)
    ~on_timeout:(fun () -> timed_out := true)
    ~deps:[ ("c", Tact_core.Bounds.make ~st:0.2 ()) ]
    ~f:(fun db -> Db.get db "x")
    ~k:(fun _ -> served := true);
  Alcotest.(check bool) "stale read not served at once" false !served;
  ignore (pump_all ~wall:3.0 (fun () -> !served || !timed_out));
  Alcotest.(check bool) "read times out behind the cut" true (!timed_out && not !served);
  Array.iter Serve.request_stop serves;
  Alcotest.(check bool) "drained" true
    (pump_all ~wall:6.0 (fun () -> Array.for_all Serve.stopped serves));
  Array.iter Serve.close serves

let test_serve_unknown_procedure () =
  (* A client names a procedure the fleet's table lacks: the write is
     answered with a Conflict, and the daemon keeps serving. *)
  let serves, client_addrs, pump_all = serve_fleet () in
  let c = client_connect client_addrs.(0) in
  (match
     client_call ~pump_all c
       (Client.Submit
          { conit = "c"; nweight = 1.0; oweight = 1.0; op = Op.Named ("nope", Value.Nil) })
   with
  | Some (Client.Outcome (Op.Conflict _)) -> ()
  | Some r -> Alcotest.failf "unknown procedure: %s" (Client.describe_response r)
  | None -> Alcotest.fail "unknown procedure not answered");
  (match client_call ~pump_all c Client.Status with
  | Some (Client.Status_r _) -> ()
  | Some r -> Alcotest.failf "status: %s" (Client.describe_response r)
  | None -> Alcotest.fail "status not answered after the conflict");
  (try Unix.close c.cl_fd with Unix.Unix_error _ -> ());
  Array.iter Serve.request_stop serves;
  Alcotest.(check bool) "drained" true
    (pump_all ~wall:6.0 (fun () -> Array.for_all Serve.stopped serves));
  Array.iter Serve.close serves

(* Client input the replica must never see is answered [Err] at the daemon:
   writes with a NaN or infinite weight, queries with a NaN or negative
   bound.  None reaches the replica: nothing is logged, nothing parks, and
   a sane write is still served. *)
let test_serve_refuses_bad_input () =
  let serves, client_addrs, pump_all = serve_fleet () in
  let c = client_connect client_addrs.(0) in
  let submit nweight oweight =
    Client.Submit { conit = "c"; nweight; oweight; op = Op.Add ("k", 1.0) }
  in
  let query bounds = Client.Query { key = "k"; conit = "c"; bounds } in
  List.iter
    (fun (what, req) ->
      match client_call ~pump_all c req with
      | Some (Client.Err m) when m <> "deadline" -> ()
      | Some r -> Alcotest.failf "%s: %s" what (Client.describe_response r)
      | None -> Alcotest.failf "%s not answered" what)
    [
      ("NaN nweight", submit Float.nan 1.0);
      ("infinite oweight", submit 1.0 infinity);
      ("NaN bound", query (Bounds.make ~ne:Float.nan ()));
      ("negative bound", query (Bounds.make ~st:(-1.0) ()));
    ];
  let r0 = Serve.replica serves.(0) in
  Alcotest.(check int) "nothing logged" 0 (Wlog.num_known (Replica.log r0));
  Alcotest.(check int) "nothing parked" 0 (Replica.pending_count r0);
  (match client_call ~pump_all c (submit 1.0 1.0) with
  | Some (Client.Outcome _) -> ()
  | Some r -> Alcotest.failf "sane write: %s" (Client.describe_response r)
  | None -> Alcotest.fail "sane write not answered");
  (try Unix.close c.cl_fd with Unix.Unix_error _ -> ());
  Array.iter Serve.request_stop serves;
  Alcotest.(check bool) "drained" true
    (pump_all ~wall:6.0 (fun () -> Array.for_all Serve.stopped serves));
  Array.iter Serve.close serves

(* A connection's output over a socket pair with small kernel buffers:
   varied-size frames interleave with flushes that the full socket cuts
   short, and the reader, draining slowly, must see exactly the appended
   frames' bytes, in order. *)
let test_conn_partial_writes () =
  let w, r = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int w Unix.SO_SNDBUF 4096;
  Unix.setsockopt_int r Unix.SO_RCVBUF 4096;
  Unix.set_nonblock w;
  Unix.set_nonblock r;
  let c = Conn.of_fd (Loop.create ()) w in
  let expect = Buffer.create 1_000_000 and got = Buffer.create 1_000_000 in
  let chunk = Bytes.create 1000 in
  let short = ref 0 in
  let flush () =
    let before = Conn.unsent c in
    match Conn.flush c ~resume:ignore with
    | Ok n -> if n < before then incr short
    | Error e -> Alcotest.failf "flush: %s" (Unix.error_message e)
  in
  let read_some () =
    match Unix.read r chunk 0 (Bytes.length chunk) with
    | n -> Buffer.add_subbytes got chunk 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  for i = 0 to 4_999 do
    let s = String.init (1 + (i * 37 mod 300)) (fun j -> Char.chr (97 + ((i + j) mod 26))) in
    Buffer.add_string expect (Transport.encode_frame_header ~len:(String.length s));
    Buffer.add_string expect s;
    Conn.add_frame c s;
    flush ();
    if i mod 7 = 0 then read_some ()
  done;
  while Conn.unsent c > 0 do
    read_some ();
    flush ()
  done;
  while Buffer.length got < Buffer.length expect do
    read_some ()
  done;
  Conn.close c;
  Unix.close r;
  Alcotest.(check bool) "flushes cut short" true (!short > 0);
  Alcotest.(check int) "byte count" (Buffer.length expect) (Buffer.length got);
  Alcotest.(check bool) "bytes in order" true
    (String.equal (Buffer.contents expect) (Buffer.contents got))

(* A frame larger than the initial input buffer, fed one byte per read:
   nothing surfaces before the last byte, then exactly one payload. *)
let test_conn_frame_split () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let c = Conn.of_fd (Loop.create ()) a in
  let payload = String.init 5000 (fun i -> Char.chr (i * 7 mod 256)) in
  let bytes = Transport.encode_frame_header ~len:(String.length payload) ^ payload in
  let got = ref [] in
  String.iteri
    (fun i ch ->
      ignore (Unix.write_substring b (String.make 1 ch) 0 1);
      (match Conn.read c with
      | Ok true -> ()
      | Ok false | Error _ -> Alcotest.failf "byte %d not read" i);
      (match Conn.frames c ~max_frame:Transport.default_max_frame (fun p -> got := p :: !got) with
      | Ok () -> ()
      | Error _ -> Alcotest.failf "byte %d refused" i);
      if i < String.length bytes - 1 then
        Alcotest.(check int) "nothing before the last byte" 0 (List.length !got))
    bytes;
  Alcotest.(check int) "one payload" 1 (List.length !got);
  Alcotest.(check bool) "payload intact" true (String.equal payload (List.hd !got));
  Conn.close c;
  Unix.close b

(* An oversized prefix: the reason comes back once, the descriptor is
   closed at once, and later calls — a second close included — touch
   nothing, not even a descriptor that reuses the closed one's number. *)
let test_conn_bad_prefix_closes_once () =
  let baseline = count_fds () in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let c = Conn.of_fd (Loop.create ()) a in
  let huge = Transport.encode_frame_header ~len:(1 lsl 29) in
  ignore (Unix.write_substring b huge 0 (String.length huge));
  Alcotest.(check bool) "prefix read" true (Conn.read c = Ok true);
  let reasons = ref 0 in
  let frames () =
    match Conn.frames c ~max_frame:1024 (fun _ -> Alcotest.fail "payload from a bad prefix") with
    | Ok () -> ()
    | Error (Conn.Bad_prefix (Transport.Too_large _)) -> incr reasons
    | Error _ -> Alcotest.fail "wrong reason"
  in
  frames ();
  frames ();
  Alcotest.(check int) "reason reported once" 1 !reasons;
  Alcotest.(check bool) "closed" true (Conn.is_closed c);
  Alcotest.(check int) "descriptor closed" (baseline + 1) (count_fds ());
  let x, y = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Conn.close c;
  Conn.close c;
  Alcotest.(check bool) "read after close" true (Conn.read c = Ok false);
  Alcotest.(check int) "a later descriptor survives" 1 (Unix.write_substring y "z" 0 1);
  Unix.close x;
  Unix.close y;
  Unix.close b;
  Alcotest.(check int) "no fd leaked" baseline (count_fds ())

(* A client that stops reading: with a 4 KiB receive buffer it sends 5,000
   Status requests before reading anything, then reads.  Every response
   arrives, parses, and comes in order (the replica clock each one reports
   never goes back).  How much of the backlog the kernel absorbs depends on
   its socket buffer tuning; the partial-write path itself is pinned by
   [test_conn_partial_writes]. *)
let test_serve_slow_reader () =
  let serves, client_addrs, pump_all = serve_fleet () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  Unix.connect fd client_addrs.(0);
  Unix.set_nonblock fd;
  let c = { cl_fd = fd; cl_buf = Bytes.create 4096; cl_len = 0 } in
  let requests = 5_000 in
  let payload = Client.request_to_string Client.Status in
  let one = Transport.encode_frame_header ~len:(String.length payload) ^ payload in
  let msg = String.concat "" (List.init requests (fun _ -> one)) in
  let sent = ref 0 in
  Alcotest.(check bool) "every request sent" true
    (pump_all ~wall:20.0 (fun () ->
         (match Unix.write_substring fd msg !sent (String.length msg - !sent) with
         | n -> sent := !sent + n
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
         !sent = String.length msg));
  let received = ref 0 and last_now = ref neg_infinity in
  Alcotest.(check bool) "every response read" true
    (pump_all ~wall:20.0 (fun () ->
         let rec drain () =
           match client_try_read c with
           | Some (Client.Status_r st) ->
             if st.Client.c_now < !last_now then
               Alcotest.failf "response %d out of order" !received;
             last_now := st.Client.c_now;
             incr received;
             drain ()
           | Some r -> Alcotest.failf "status: %s" (Client.describe_response r)
           | None -> ()
         in
         drain ();
         !received = requests));
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Array.iter Serve.request_stop serves;
  Alcotest.(check bool) "drained" true
    (pump_all ~wall:6.0 (fun () -> Array.for_all Serve.stopped serves));
  Array.iter Serve.close serves

let test_serve_nemesis_convergence () =
  let serves, client_addrs, pump_all = serve_fleet () in
  (* The nemesis schedule: a rolling partition sweeping each replica plus a
     delay spike, quiescent tail at 1.6 s — installed identically on every
     process, each applying its own projection at the real-network seam. *)
  let sched =
    let rng = Prng.create ~seed:77 in
    {
      Tact_check.Fault.events =
        Tact_check.Gen.compose
          [
            Tact_check.Gen.rolling_partition rng ~n:3 ~start:0.2 ~period:0.4
              ~rounds:3;
            Tact_check.Gen.delay_spike rng ~start:0.3 ~duration:0.6 ~factor:4.0;
          ];
      quiet_after = 1.6;
    }
  in
  Alcotest.(check (list string)) "schedule well-formed" []
    (Tact_check.Fault.validate ~n:3 sched);
  Array.iter (fun s -> Tact_check.Live.install s sched) serves;
  (* Client traffic throughout the disturbance: one write to each replica
     per round, weak bounds — the paper's availability half.  Every write
     must be accepted (writes are local under weak bounds; the replica
     degrades gracefully rather than failing). *)
  let clients = Array.init 3 (fun i -> client_connect client_addrs.(i)) in
  let submitted = ref 0 in
  for round = 1 to 4 do
    Array.iteri
      (fun i c ->
        client_send c
          (Client.Submit
             {
               conit = "c";
               nweight = 1.0;
               oweight = 1.0;
               op = Op.Add ("x", 1.0);
             });
        incr submitted;
        let resp = ref None in
        let ok =
          pump_all ~wall:8.0 (fun () ->
              (match client_try_read c with Some r -> resp := Some r | None -> ());
              !resp <> None)
        in
        Alcotest.(check bool)
          (Printf.sprintf "round %d replica %d write answered" round i)
          true ok;
        match !resp with
        | Some (Client.Outcome (Op.Applied _)) -> ()
        | Some r ->
          Alcotest.failf "write to %d refused during faults: %s" i
            (Client.describe_response r)
        | None -> assert false)
      clients;
    (* Let the disturbance roll between rounds. *)
    let t0 = Unix.gettimeofday () in
    ignore (pump_all ~wall:0.3 (fun () -> Unix.gettimeofday () -. t0 > 0.25))
  done;
  (* Belt and braces before the convergence check: lift every disturbance
     explicitly (idempotent with the schedule's own quiescent tail), going
     through the same entry points the daemon uses. *)
  Array.iter
    (fun s ->
      let t = Tact_check.Live.target s in
      Tact_check.Fault.apply t Tact_check.Fault.Heal_all;
      Tact_check.Fault.clear t)
    serves;
  (* After the quiescent tail: every replica serves the same total under a
     staleness bound — convergence through the healed network. *)
  let expect = float_of_int !submitted in
  Array.iteri
    (fun i c ->
      client_send c
        (Client.Query
           { key = "x"; conit = "c"; bounds = Bounds.make ~st:0.4 () });
      let resp = ref None in
      let ok =
        pump_all ~wall:12.0 (fun () ->
            (match client_try_read c with Some r -> resp := Some r | None -> ());
            !resp <> None)
      in
      Alcotest.(check bool) (Printf.sprintf "replica %d query answered" i) true ok;
      match !resp with
      | Some (Client.Value v) ->
        Alcotest.(check bool)
          (Printf.sprintf "replica %d converged (%s, want %g)" i
             (Value.to_string v) expect)
          true
          (feq (Value.to_float v) expect)
      | Some r ->
        Alcotest.failf "query at %d failed: %s" i (Client.describe_response r)
      | None -> assert false)
    clients;
  (* Clean accounting: no replica saw malformed bytes, none dropped parked
     frames, every client access above was served (the O6-style
     availability check for the live system). *)
  Array.iter
    (fun s ->
      let r = Serve.replica s in
      Alcotest.(check int)
        (Printf.sprintf "replica %d malformed-free" (Serve.id s))
        0
        (Replica.malformed_frames r);
      Alcotest.(check int)
        (Printf.sprintf "replica %d no parked drops" (Serve.id s))
        0 (Tcp.stats (Serve.tcp s)).Tcp.parked_drops)
    serves;
  Array.iter (fun c -> try Unix.close c.cl_fd with Unix.Unix_error _ -> ()) clients;
  (* Graceful drain: all three stop cleanly. *)
  Array.iter Serve.request_stop serves;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "draining or already stopped" true
        (Serve.draining s || Serve.stopped s))
    serves;
  Alcotest.(check bool) "drained" true
    (pump_all ~wall:6.0 (fun () -> Array.for_all Serve.stopped serves));
  Array.iter Serve.close serves;
  (* close is idempotent and leaves the loop in its stopping state. *)
  Array.iter
    (fun s ->
      Serve.close s;
      Alcotest.(check bool) "loop stopping after close" true
        (Loop.stopping (Serve.loop s)))
    serves

(* --- System.run teardown (satellite f) --------------------------------- *)

let topo n = Tact_sim.Topology.uniform ~n ~latency:0.04 ~bandwidth:1_000_000.0

exception Boom

let test_system_run_teardown_on_raise () =
  let sys = System.create ~topology:(topo 2) ~config:Config.default () in
  let engine = System.engine sys in
  Tact_sim.Engine.schedule engine
    ~label:{ Tact_sim.Engine.actor = -1; tag = "boom" }
    ~delay:0.5
    (fun () -> raise Boom);
  Replica.submit_write (System.replica sys 0) ~deps:[]
    ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
    ~op:(Op.Add ("x", 1.0)) ~k:ignore;
  (match System.run sys with
  | () -> Alcotest.fail "expected Boom to propagate"
  | exception Boom -> ());
  (* The exception path closed every transport; closing again is a no-op
     and the system is still inspectable. *)
  System.close sys;
  System.close sys;
  Replica.close (System.replica sys 0);
  Alcotest.(check bool) "replicas still inspectable" true
    (Replica.id (System.replica sys 1) = 1)

let test_system_close_idempotent () =
  let sys = System.create ~topology:(topo 3) ~config:Config.default () in
  Replica.submit_write (System.replica sys 1) ~deps:[]
    ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
    ~op:(Op.Add ("x", 1.0)) ~k:ignore;
  System.run sys;
  System.close sys;
  System.close sys;
  (* A closed replica's sends are inert, not crashes. *)
  let r0 = System.replica sys 0 in
  Replica.close r0;
  Alcotest.(check int) "stats still readable" 0 (Replica.stats r0).Replica.malformed_frames

(* --- The replica seam: one sync builder, one apply path ---------------- *)

(* A replica on an endpoint that only records what it sends: an engine
   drives its timers, and nothing is delivered unless the test does it. *)
let recording_replica ?emit ~engine ~id ~n config =
  let sent = ref [] in
  let endpoint =
    {
      Transport.ep_now = (fun () -> Tact_sim.Engine.now engine);
      ep_schedule =
        (fun ~tag:_ ~delay f -> Tact_sim.Engine.schedule engine ~delay f);
      ep_every = (fun ~tag:_ ~period f -> Tact_sim.Engine.every engine ~period f);
      ep_send =
        (fun ~dst msg ->
          sent := (dst, msg) :: !sent;
          Ok ());
      ep_close = ignore;
      ep_emit = emit;
    }
  in
  (Replica.create ~id ~n ~endpoint ~config (), sent)

(* What a replica has sent since the last call, oldest first. *)
let take sent =
  let l = List.rev !sent in
  sent := [];
  l

let weight conit = { Write.conit; nweight = 1.0; oweight = 1.0 }

let decode_batch s =
  match Batch.decode s with
  | Ok b -> b
  | Error e -> Alcotest.failf "batch frame: %s" (Transport.error_to_string e)

(* The shape of one outgoing sync: (message kind, frame kind, payload), with
   the Per_write messages' kinds spelled the way a Batch frame spells them. *)
let sync_shape = function
  | Wire.Transfer { kind = `Push; _ } -> ("transfer", "push", "delta")
  | Wire.Transfer { kind = `Pull_reply r; _ } ->
    ("transfer", Printf.sprintf "pull %d" r, "delta")
  | Wire.Transfer { kind = `Gossip; _ } -> ("transfer", "gossip", "delta")
  | Wire.Snapshot { round; _ } -> ("snapshot", Printf.sprintf "round %d" round, "full")
  | Wire.Batch_frame s ->
    let b = decode_batch s in
    ( "batch",
      (match b.Batch.kind with
      | Batch.Push -> "push"
      | Batch.Pull_reply r -> Printf.sprintf "pull %d" r
      | Batch.Gossip -> "gossip"),
      match b.Batch.payload with Batch.Delta _ -> "delta" | Batch.Full _ -> "full" )
  | Wire.Pull_req _ -> ("pull_req", "", "")
  | Wire.Ack _ -> ("ack", "", "")

let shape = Alcotest.(triple string string string)

(* The builder's four cases — Per_write or Batched, delta or snapshot
   fallback — each for a gossip push and for a reply to pull round 7.
   Replica 0 is the primary, so its write commits at once; keeping no
   committed writes then truncates the log past replica 1, which forces the
   snapshot fallback. *)
let test_seam_sync_builder () =
  let case sync fallback =
    let name =
      Printf.sprintf "%s/%s"
        (match sync with Config.Per_write -> "per-write" | Config.Batched -> "batched")
        (if fallback then "snapshot" else "delta")
    in
    let config =
      {
        Config.default with
        Config.sync;
        commit_scheme = Config.Primary 0;
        truncate_keep = (if fallback then Some 0 else None);
        antientropy_period = Some 1.0;
        conits = [ Conit.unconstrained "a" ];
      }
    in
    let engine = Tact_sim.Engine.create () in
    let r0, sent0 = recording_replica ~engine ~id:0 ~n:2 config in
    let r1, sent1 = recording_replica ~engine ~id:1 ~n:2 config in
    Replica.submit_write r0 ~deps:[] ~affects:[ weight "a" ]
      ~op:(Op.Add ("x", 1.0)) ~k:ignore;
    Alcotest.(check int) (name ^ ": the write sends nothing") 0
      (List.length (take sent0));
    Replica.start r0;
    Tact_sim.Engine.run ~until:1.5 engine;
    let push =
      match take sent0 with
      | [ (1, m) ] -> m
      | l -> Alcotest.failf "%s: %d messages after one gossip tick" name (List.length l)
    in
    let full = if fallback then "full" else "delta" in
    let msg_kind =
      match sync with
      | Config.Per_write -> if fallback then "snapshot" else "transfer"
      | Config.Batched -> "batch"
    in
    let push_kind =
      (* A Per_write snapshot carries no kind; a push is round 0. *)
      if msg_kind = "snapshot" then "round 0" else "push"
    in
    Alcotest.check shape (name ^ ": push") (msg_kind, push_kind, full) (sync_shape push);
    (* The receiver applies the push and acknowledges it — except a
       Per_write snapshot, which is never acknowledged. *)
    Replica.receive r1 ~src:0 push;
    Alcotest.(check int) (name ^ ": push applied") 1
      (Version_vector.get (Wlog.vector (Replica.log r1)) 0);
    let acks =
      List.map
        (function 0, Wire.Ack _ -> "ack" | _, m -> let k, _, _ = sync_shape m in k)
        (take sent1)
    in
    Alcotest.(check (list string)) (name ^ ": push acknowledged")
      (if msg_kind = "snapshot" then [] else [ "ack" ])
      acks;
    (* A pull reply answers at once, in every mode, and is never
       acknowledged. *)
    Replica.receive r0 ~src:1
      (Wire.Pull_req
         { from = 1; vector = Version_vector.create 2; csn_known = 0; round = 7 });
    let reply =
      match take sent0 with
      | [ (1, m) ] -> m
      | l -> Alcotest.failf "%s: %d replies to one pull" name (List.length l)
    in
    let pull_kind = if msg_kind = "snapshot" then "round 7" else "pull 7" in
    Alcotest.check shape (name ^ ": pull reply") (msg_kind, pull_kind, full)
      (sync_shape reply);
    Replica.receive r1 ~src:0 reply;
    Alcotest.(check int) (name ^ ": pull reply not acknowledged") 0
      (List.length (take sent1));
    Alcotest.(check (float 0.0)) (name ^ ": replica 1 converged") 1.0
      (Db.get_float (Replica.db r1) "x")
  in
  List.iter
    (fun sync -> List.iter (case sync) [ false; true ])
    [ Config.Per_write; Config.Batched ]

(* A Batch frame names its sender and shard; the sender must match the
   transport peer the frame arrived from, exactly as a Transfer's does, and
   the shard the one the replica serves. *)
let test_seam_batch_sender_checked () =
  let engine = Tact_sim.Engine.create () in
  let r, _ =
    recording_replica ~engine ~id:0 ~n:3
      { Config.default with Config.conits = [ Conit.unconstrained "a" ] }
  in
  let id = { Write.origin = 2; seq = 1 } in
  let w = Write.make ~id ~accept_time:0.0 ~op:(Op.Add ("x", 1.0)) ~affects:[ weight "a" ] in
  let vector = Version_vector.create 3 in
  Version_vector.set vector 2 1;
  let cover = Array.make 3 0.0 in
  (* The raw frame, as it crosses the peer wire. *)
  let frame ~shard =
    Batch.to_string
      { Batch.from = 2; shard; kind = Batch.Gossip; vector; cover; csn_start = 0;
        csn = []; rate = 0.0; payload = Batch.Delta [ w ] }
  in
  let transfer =
    Wire.to_string
      (Wire.Transfer
         { from = 2; writes = [ w ]; vector; cover; csn_start = 0; csn = [];
           rate = 0.0; kind = `Gossip })
  in
  Replica.deliver_wire r ~src:1 (frame ~shard:0);
  Alcotest.(check int) "spoofed batch frame counted" 1 (Replica.malformed_frames r);
  Alcotest.(check bool) "spoofed batch frame not applied" false
    (Wlog.known (Replica.log r) id);
  Replica.deliver_wire r ~src:1 transfer;
  Alcotest.(check int) "spoofed transfer counted" 2 (Replica.malformed_frames r);
  Alcotest.(check bool) "spoofed transfer not applied" false
    (Wlog.known (Replica.log r) id);
  Replica.deliver_wire r ~src:2 (frame ~shard:5);
  Alcotest.(check int) "other shard's frame counted" 1
    (Replica.stats r).Replica.wrong_shard_frames;
  Alcotest.(check bool) "other shard's frame not applied" false
    (Wlog.known (Replica.log r) id);
  Replica.deliver_wire r ~src:2 (frame ~shard:0);
  Alcotest.(check int) "authentic batch frame accepted" 2 (Replica.malformed_frames r);
  Alcotest.(check bool) "authentic batch frame applied" true
    (Wlog.known (Replica.log r) id)

(* Bytes that no Wire message describes: an unknown first byte, and a full
   sync in the Wire envelope that carries a CSN slice or is not a pull
   reply (a Snapshot has neither).  Each is refused as [Malformed] by the
   decoder, and counted by a replica that receives it. *)
let wire_snapshot_sync ~kind ~csn =
  let snap = sample_snapshot () in
  let envelope =
    (* magic, version, tag and sender *)
    String.sub
      (Wire.to_string
         (Wire.Snapshot
            { from = 1; snap; writes = []; vector = Version_vector.create 3;
              cover = Array.make 3 0.0; rate = 0.0; round = 0 }))
      0 11
  in
  envelope
  ^ Codec.to_string Batch.encode_body
      { Batch.from = 1; shard = 0; kind; vector = Version_vector.create 3;
        cover = Array.make 3 0.0; csn_start = 0; csn; rate = 0.0;
        payload = Batch.Full (snap, []) }

let wire_refusals () =
  let valid = Wire.to_string (Wire.Ack { from = 1; vector = Version_vector.create 3; csn_known = 0 }) in
  [
    ("unknown first byte", "\x42" ^ String.sub valid 1 (String.length valid - 1));
    ( "full sync with a CSN slice",
      wire_snapshot_sync ~kind:(Batch.Pull_reply 7) ~csn:[ { Write.origin = 0; seq = 1 } ] );
    ("full sync as a push", wire_snapshot_sync ~kind:Batch.Push ~csn:[]);
    ("full sync as gossip", wire_snapshot_sync ~kind:Batch.Gossip ~csn:[]);
  ]

let test_wire_refusals_malformed () =
  (match Wire.decode (wire_snapshot_sync ~kind:(Batch.Pull_reply 7) ~csn:[]) with
  | Ok (Wire.Snapshot { round = 7; _ }) -> ()
  | _ -> Alcotest.fail "a full pull-reply sync without a CSN slice is a Snapshot");
  List.iter
    (fun (name, s) ->
      match Wire.decode s with
      | Error (Transport.Malformed _) -> ()
      | Error e -> Alcotest.failf "%s: %s" name (Transport.error_to_string e)
      | Ok _ -> Alcotest.failf "%s: decoded" name)
    (wire_refusals ())

(* Peer input that would crash or poison a replica is refused before any of
   it applies.  On 3 replicas, peer 1 sends messages shaped for another
   system size (a Batch frame whose vector has 5 entries, an Ack whose
   vector has 5, a Batch frame whose cover has 7), a CSN slice that starts
   at -1, a CSN slice that disagrees with the one already known, a buffered
   slice that disagrees once its gap fills, a NaN rate and an infinite
   cover entry.  Each refusal is counted in [malformed_frames], publishes
   [Event.Malformed] and applies nothing, and the replica keeps serving. *)
let probe_id = { Write.origin = 1; seq = 1 }

let probe_write =
  Write.make ~id:probe_id ~accept_time:0.0 ~op:(Op.Add ("x", 1.0)) ~affects:[ weight "a" ]

(* A vector of [len] entries that has seen the probe write. *)
let probe_vector len =
  let v = Version_vector.create len in
  Version_vector.set v 1 1;
  v

let sync_frame ?(kind = Batch.Gossip) ?(vector = Version_vector.create 3)
    ?(cover = Array.make 3 0.0) ?(csn_start = 0) ?(csn = []) ?(rate = 0.0)
    ?(writes = []) () =
  Wire.to_string
    (Wire.Batch_frame
       (Batch.to_string
          { Batch.from = 1; shard = 0; kind; vector; cover; csn_start; csn; rate;
            payload = Batch.Delta writes }))

let refusal_probe name frames () =
  let engine = Tact_sim.Engine.create () in
  let events = ref [] in
  let r, _ =
    recording_replica ~emit:(fun e -> events := e :: !events) ~engine ~id:0 ~n:3
      { Config.default with Config.conits = [ Conit.unconstrained "a" ] }
  in
  List.iter (Replica.deliver_wire r ~src:1) frames;
  Alcotest.(check int) (name ^ ": counted") 1 (Replica.malformed_frames r);
  Alcotest.(check bool) (name ^ ": published") true
    (List.exists
       (fun (e : Event.t) -> match e.kind with Event.Malformed _ -> true | _ -> false)
       !events);
  Alcotest.(check bool) (name ^ ": not applied") false (Wlog.known (Replica.log r) probe_id);
  Replica.deliver_wire r ~src:1
    (sync_frame ~vector:(probe_vector 3) ~writes:[ probe_write ] ());
  Alcotest.(check int) (name ^ ": well-shaped accepted") 1 (Replica.malformed_frames r);
  Alcotest.(check bool) (name ^ ": well-shaped applied") true
    (Wlog.known (Replica.log r) probe_id)

let csn_id origin seq = { Write.origin; seq }

(* 2,000 client requests written back to back are all answered, in order:
   each adds 1 to one key, so the i-th outcome is i. *)
let test_serve_pipelined_requests () =
  let serves, client_addrs, pump_all = serve_fleet () in
  let c = client_connect client_addrs.(0) in
  let requests = 2_000 in
  let one =
    let payload =
      Client.request_to_string
        (Client.Submit { conit = "c"; nweight = 1.0; oweight = 1.0; op = Op.Add ("k", 1.0) })
    in
    Transport.encode_frame_header ~len:(String.length payload) ^ payload
  in
  let msg = String.concat "" (List.init requests (fun _ -> one)) in
  (* One write: the daemon meets the requests many to a read.  Whatever the
     socket did not take at once follows as it drains. *)
  let sent = ref (Unix.write_substring c.cl_fd msg 0 (String.length msg)) in
  let got = ref 0 in
  Alcotest.(check bool) "every request answered" true
    (pump_all ~wall:20.0 (fun () ->
         (if !sent < String.length msg then
            match Unix.write_substring c.cl_fd msg !sent (String.length msg - !sent) with
            | n -> sent := !sent + n
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
         let rec drain () =
           match client_try_read c with
           | Some (Client.Outcome (Op.Applied (Value.Float v))) ->
             incr got;
             if not (Float.equal v (float_of_int !got)) then
               Alcotest.failf "response %d carries %g: out of order" !got v;
             drain ()
           | Some r -> Alcotest.failf "submit: %s" (Client.describe_response r)
           | None -> ()
         in
         drain ();
         !got = requests));
  (try Unix.close c.cl_fd with Unix.Unix_error _ -> ());
  Array.iter Serve.request_stop serves;
  Alcotest.(check bool) "drained" true
    (pump_all ~wall:6.0 (fun () -> Array.for_all Serve.stopped serves));
  Array.iter Serve.close serves

(* 2,000 peer frames sent in one burst are all delivered, in order. *)
let test_tcp_burst_in_order () =
  let ports = Array.of_list (fresh_ports 2) in
  let addrs = Array.map loopback ports in
  let loop = Loop.create () in
  let rng = Prng.create ~seed:27 in
  let ts =
    Array.init 2 (fun self ->
        Tcp.create ~loop ~self ~addrs ~knobs:fast_knobs ~rng:(Prng.split rng) ())
  in
  let got = ref [] in
  Tcp.set_handler ts.(1) (fun ~src payload -> if src = 0 then got := payload :: !got);
  Array.iteri (fun i t -> Tcp.listen t ~addr:addrs.(i)) ts;
  Alcotest.(check bool) "link up" true
    (pump loop ~wall:5.0 (fun () -> Tcp.peer_up ts.(0) 1 && Tcp.peer_up ts.(1) 0));
  let frames = 2_000 in
  for i = 1 to frames do
    match Tcp.send ts.(0) ~dst:1 (Printf.sprintf "frame %d" i) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "send %d: %s" i (Transport.error_to_string e)
  done;
  Alcotest.(check bool) "every frame delivered" true
    (pump loop ~wall:10.0 (fun () -> List.length !got >= frames));
  Alcotest.(check (list string)) "in order"
    (List.init frames (fun i -> Printf.sprintf "frame %d" (i + 1)))
    (List.rev !got);
  Array.iter Tcp.close ts

(* --- Loop timers: the engine's heap on the wall clock ------------------ *)

(* [n] timers with seeded random delays on a 10 ms grid.  Scheduling them
   all takes far less than one grid step, so a timer on a lower step is due
   first, and timers on one step fall due in scheduling order: the firing
   order must be the (step, seq) order. *)
let test_loop_timers_heap_order () =
  let n = 1_000 in
  let loop = Loop.create () in
  let rng = Prng.create ~seed:21 in
  let steps = Array.init n (fun _ -> Prng.int rng 30) in
  let fired = ref [] in
  Array.iteri
    (fun i k ->
      Loop.schedule loop ~tag:"test" ~delay:(0.01 *. float_of_int k) (fun () ->
          fired := i :: !fired))
    steps;
  Loop.run loop;
  let expected =
    List.stable_sort
      (fun a b -> Int.compare steps.(a) steps.(b))
      (List.init n Fun.id)
  in
  Alcotest.(check (list int)) "(due, seq) order" expected (List.rev !fired)

let test_loop_timers_equal_delay_fifo () =
  let loop = Loop.create () in
  let fired = ref [] in
  for i = 0 to 99 do
    Loop.schedule loop ~tag:"test" ~delay:0.0 (fun () -> fired := i :: !fired)
  done;
  Loop.run loop;
  Alcotest.(check (list int)) "scheduling order" (List.init 100 Fun.id)
    (List.rev !fired)

let suite =
  [
    Alcotest.test_case "supervisor: dial/up/resync cycle" `Quick test_sup_dial_cycle;
    Alcotest.test_case "supervisor: decorrelated backoff sequence" `Quick
      test_sup_backoff_sequence;
    Alcotest.test_case "supervisor: retry exhaustion parks" `Quick
      test_sup_retry_exhaustion_parks;
    Alcotest.test_case "supervisor: half-open detection" `Quick test_sup_half_open;
    Alcotest.test_case "supervisor: connect deadline" `Quick test_sup_connect_deadline;
    Alcotest.test_case "supervisor: stale events absorbed" `Quick
      test_sup_stale_events_absorbed;
    Alcotest.test_case "fuzz: batch decode total" `Quick test_fuzz_batch_decode;
    Alcotest.test_case "fuzz: wire decode total" `Quick test_fuzz_wire_decode;
    Alcotest.test_case "fuzz: client decode total" `Quick test_fuzz_client_decode;
    Alcotest.test_case "framing: header bounds" `Quick test_frame_header_bounds;
    Alcotest.test_case "config: transport knob diagnostics" `Quick
      test_config_transport_knobs;
    Alcotest.test_case "faulty: seeded determinism" `Quick test_faulty_deterministic;
    Alcotest.test_case "faulty: partition semantics" `Quick test_faulty_partitions;
    Alcotest.test_case "faulty: same fates as net" `Quick test_faulty_matches_net;
    Alcotest.test_case "tcp: loopback delivery" `Quick test_tcp_loopback_delivery;
    Alcotest.test_case "tcp: park and reconnect-resync" `Quick
      test_tcp_park_and_reconnect_resync;
    Alcotest.test_case "tcp: parks after retry budget" `Quick
      test_tcp_parks_after_retry_budget;
    Alcotest.test_case "tcp: poisons hostile bytes" `Quick test_tcp_poisons_hostile_bytes;
    Alcotest.test_case "tcp: no fd leak on create/destroy" `Quick test_tcp_no_fd_leak;
    Alcotest.test_case "serve: nemesis run converges" `Slow
      test_serve_nemesis_convergence;
    Alcotest.test_case "serve: unknown procedure conflicts" `Quick
      test_serve_unknown_procedure;
    Alcotest.test_case "serve: daemons started apart share one clock" `Quick
      test_serve_staggered_clock;
    Alcotest.test_case "conn: partial writes keep order" `Quick test_conn_partial_writes;
    Alcotest.test_case "serve: slow reader gets every response" `Quick
      test_serve_slow_reader;
    Alcotest.test_case "serve: invalid config raises" `Quick
      test_serve_rejects_invalid_config;
    Alcotest.test_case "system: teardown on raise" `Quick
      test_system_run_teardown_on_raise;
    Alcotest.test_case "system: close idempotent" `Quick test_system_close_idempotent;
    Alcotest.test_case "seam: one sync builder" `Quick test_seam_sync_builder;
    Alcotest.test_case "seam: batch vector of 5 refused" `Quick
      (refusal_probe "batch vector of 5"
         [ sync_frame ~kind:Batch.Push ~vector:(probe_vector 5) ~writes:[ probe_write ] () ]);
    Alcotest.test_case "seam: ack vector of 5 refused" `Quick
      (refusal_probe "ack vector of 5"
         [ Wire.to_string (Wire.Ack { from = 1; vector = probe_vector 5; csn_known = 0 }) ]);
    Alcotest.test_case "seam: batch cover of 7 refused" `Quick
      (refusal_probe "batch cover of 7"
         [ sync_frame ~kind:Batch.Push ~vector:(probe_vector 3) ~cover:(Array.make 7 0.0)
             ~writes:[ probe_write ] () ]);
    Alcotest.test_case "seam: CSN slice at -1 refused" `Quick
      (refusal_probe "CSN slice at -1" [ sync_frame ~csn_start:(-1) ~csn:[ csn_id 0 1 ] () ]);
    Alcotest.test_case "seam: disagreeing CSN slice refused" `Quick
      (refusal_probe "disagreeing CSN slice"
         [ sync_frame ~csn:[ csn_id 0 1 ] (); sync_frame ~csn:[ csn_id 0 2 ] () ]);
    Alcotest.test_case "seam: disagreeing buffered CSN slice dropped" `Quick
      (refusal_probe "disagreeing buffered CSN slice"
         [ sync_frame ~csn_start:1 ~csn:[ csn_id 0 3 ] ();
           sync_frame ~csn:[ csn_id 0 1; csn_id 0 2 ] () ]);
    Alcotest.test_case "seam: NaN rate refused" `Quick
      (refusal_probe "NaN rate" [ sync_frame ~rate:Float.nan () ]);
    Alcotest.test_case "seam: infinite cover refused" `Quick
      (refusal_probe "infinite cover" [ sync_frame ~cover:[| 0.0; infinity; 0.0 |] () ]);
    Alcotest.test_case "serve: bad client input refused" `Quick
      test_serve_refuses_bad_input;
    Alcotest.test_case "tcp: dialed side reads acks through Conn" `Quick
      test_tcp_dialed_reads_acks;
    Alcotest.test_case "serve: 2,000 pipelined requests" `Quick
      test_serve_pipelined_requests;
    Alcotest.test_case "tcp: 2,000-frame burst in order" `Quick test_tcp_burst_in_order;
    Alcotest.test_case "seam: batch sender checked" `Quick
      test_seam_batch_sender_checked;
    Alcotest.test_case "loop: timers in (due, seq) order" `Quick
      test_loop_timers_heap_order;
    Alcotest.test_case "loop: equal delays fire in order" `Quick
      test_loop_timers_equal_delay_fifo;
    Alcotest.test_case "conn: frame split across reads" `Quick test_conn_frame_split;
    Alcotest.test_case "conn: bad prefix closes once" `Quick
      test_conn_bad_prefix_closes_once;
    Alcotest.test_case "wire: undescribed bytes are malformed" `Quick
      test_wire_refusals_malformed;
  ]
  @ List.map
      (fun (name, s) ->
        Alcotest.test_case ("seam: " ^ name ^ " refused") `Quick (refusal_probe name [ s ]))
      (wire_refusals ())
