(* The binary codec: hand cases, property round trips, corruption handling,
   durable snapshots. *)

open Tact_store

let feq a b = Float.abs (a -. b) < 1e-12

(* --- Value round trips ------------------------------------------------- *)

let value_gen =
  let open QCheck.Gen in
  sized (fun size ->
      fix
        (fun self n ->
          if n = 0 then
            oneof
              [ return Value.Nil;
                map (fun i -> Value.Int i) int;
                map (fun f -> Value.Float f) float;
                map (fun s -> Value.Str s) string_small ]
          else
            frequency
              [ (3, self 0);
                (1, map (fun l -> Value.List l) (list_size (int_bound 5) (self (n / 2)))) ])
        (min size 8))

let value_arb = QCheck.make ~print:Value.to_string value_gen

let test_value_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"value round trip" ~count:500 value_arb (fun v ->
         let s = Codec.to_string Codec.encode_value v in
         let c = Codec.cursor s in
         let v' = Codec.decode_value c in
         Value.equal v v' && c.Codec.pos = String.length c.Codec.data))

let test_value_nan_roundtrip () =
  match
    Codec.decode_value
      (Codec.cursor (Codec.to_string Codec.encode_value (Value.Float Float.nan)))
  with
  | Value.Float f -> Alcotest.(check bool) "nan preserved" true (Float.is_nan f)
  | _ -> Alcotest.fail "wrong shape"

(* --- Op round trips ------------------------------------------------------ *)

let test_op_roundtrip () =
  List.iter
    (fun op ->
      let op' = Codec.decode_op (Codec.cursor (Codec.to_string Codec.encode_op op)) in
      Alcotest.(check string) "op round trip" (Op.describe op) (Op.describe op'))
    [ Op.Noop; Op.Set ("k", Value.Int 3); Op.Add ("k", -2.5);
      Op.Append ("k", Value.Str "x"); Op.Named ("reserve", Value.Int 7) ]

let test_named_proc_applies () =
  let procs =
    [ ( "test.incr_by",
        fun arg db -> Op.Applied (Db.add db "n" (Value.to_float arg)) ) ]
  in
  let db = Db.create [] in
  (match Op.apply ~procs (Op.Named ("test.incr_by", Value.Float 4.0)) db with
  | Op.Applied v -> Alcotest.(check bool) "applied" true (feq (Value.to_float v) 4.0)
  | Op.Conflict _ -> Alcotest.fail "conflicted");
  (match Op.apply ~procs (Op.Named ("test.nope", Value.Nil)) db with
  | Op.Conflict r ->
    Alcotest.(check string) "unknown name conflicts" "unknown procedure \"test.nope\"" r
  | Op.Applied _ -> Alcotest.fail "unknown procedure applied");
  Alcotest.(check bool) "conflict left state alone" true
    (feq (Db.get_float db "n") 4.0)

(* --- Write round trips ------------------------------------------------- *)

let write_gen =
  QCheck.Gen.(
    map
      (fun (origin, seq, t, weights) ->
        Write.make
          ~id:{ origin; seq = seq + 1 }
          ~accept_time:t
          ~op:(Op.Add ("x", 1.0))
          ~affects:
            (List.map
               (fun (c, nw, ow) -> { Write.conit = "c" ^ string_of_int c; nweight = nw; oweight = ow })
               weights))
      (quad (int_bound 7) (int_bound 1000)
         (float_bound_exclusive 1e6)
         (list_size (int_bound 4) (triple (int_bound 9) float float))))

let test_write_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"write round trip" ~count:300
       (QCheck.make ~print:Write.to_string write_gen)
       (fun w ->
         let w' = Codec.write_of_string (Codec.write_to_string w) in
         w'.Write.id = w.Write.id
         && w'.Write.accept_time = w.Write.accept_time
         && List.length w'.Write.affects = List.length w.Write.affects
         && List.for_all2
              (fun (a : Write.weight) (b : Write.weight) ->
                a.conit = b.conit
                && a.nweight = b.nweight
                && a.oweight = b.oweight)
              w.Write.affects w'.Write.affects
         && Write.byte_size w = String.length (Codec.write_to_string w)))

let test_write_size_memoized () =
  let ops =
    [ Op.Noop;
      Op.Set ("key", Value.Str "hello");
      Op.Add ("counter", 2.5);
      Op.Append ("xs", Value.List [ Value.Int 1; Value.Str "ab"; Value.Nil ]);
      Op.Named ("reserve", Value.Float 7.0) ]
  in
  List.iteri
    (fun i op ->
      let w =
        Write.make ~id:{ origin = 1; seq = i + 1 }
          ~accept_time:(float_of_int i) ~op
          ~affects:
            [ { Write.conit = "conit-" ^ string_of_int i; nweight = 1.0; oweight = 0.5 } ]
      in
      Alcotest.(check int) "fresh write has no cached size" (-1) w.Write.size_cache;
      let expect = String.length (Codec.write_to_string w) in
      Alcotest.(check int) "cached size = encoded length" expect (Write.byte_size w);
      Alcotest.(check int) "size memoized in the write" expect w.Write.size_cache;
      Alcotest.(check int) "stable on re-query" expect (Write.byte_size w))
    ops

(* A frame's writes share a weight list with their predecessor exactly when
   the lists are bitwise equal: -0.0 is not 0.0 here. *)
let test_decode_writes_shares_weights () =
  let wt conit nweight = { Write.conit; nweight; oweight = 1.0 } in
  let lists =
    [ [ wt "a" 1.0 ]; [ wt "a" 1.0 ]; [ wt "a" (-0.0) ]; [ wt "a" (-0.0) ];
      [ wt "b" (-0.0) ]; [ wt "b" (-0.0); wt "a" 1.0 ]; []; [] ]
  in
  let ws =
    List.mapi
      (fun i affects ->
        Write.make ~id:{ origin = 1; seq = i + 1 } ~accept_time:(float_of_int i)
          ~op:(Op.Add ("x", 1.0)) ~affects)
      lists
  in
  let f = Codec.Frame.create () in
  Codec.put_int f (List.length ws);
  List.iter (Codec.encode_write f) ws;
  let decoded = Array.of_list (Codec.decode_writes (Codec.cursor (Codec.Frame.contents f))) in
  let bits (w : Write.weight) =
    (w.conit, Int64.bits_of_float w.nweight, Int64.bits_of_float w.oweight)
  in
  List.iteri
    (fun i (w : Write.t) ->
      Alcotest.(check bool) (Printf.sprintf "write %d weights round trip" i) true
        (List.map bits decoded.(i).Write.affects = List.map bits w.affects))
    ws;
  let shared i = decoded.(i).Write.affects == decoded.(i - 1).Write.affects in
  List.iter
    (fun (i, want) ->
      Alcotest.(check bool) (Printf.sprintf "write %d shares its predecessor's list" i) want
        (shared i))
    [ (1, true); (2, false); (3, true); (4, false); (5, false); (6, false); (7, true) ]

(* --- Vectors -------------------------------------------------------------- *)

let test_vector_roundtrip () =
  let v = Version_vector.create 5 in
  Version_vector.set v 0 3;
  Version_vector.set v 4 99;
  let v' =
    Codec.decode_vector (Codec.cursor (Codec.to_string Codec.encode_vector v))
  in
  Alcotest.(check bool) "equal" true (Version_vector.equal v v')

(* --- Corruption handling --------------------------------------------------- *)

let test_malformed_rejected () =
  let reject s =
    try
      ignore (Codec.decode_value (Codec.cursor s));
      false
    with Codec.Malformed _ -> true
  in
  Alcotest.(check bool) "empty" true (reject "");
  Alcotest.(check bool) "bad tag" true (reject "\xff");
  Alcotest.(check bool) "truncated int" true (reject "\x01\x00\x00");
  (* A list claiming a negative length. *)
  let s = Codec.to_string Codec.encode_value (Value.List [ Value.Int 1 ]) in
  let corrupted = "\x04\xff\xff\xff\xff\xff\xff\xff\xff" ^ String.sub s 9 (String.length s - 9) in
  Alcotest.(check bool) "negative length" true (reject corrupted)

(* The arithmetic sizes must agree exactly with the encoders they mirror —
   replicas account snapshot wire sizes without serialising. *)
let test_byte_sizes () =
  let values =
    [
      Value.Nil;
      Value.Int 42;
      Value.Float 3.25;
      Value.Str "";
      Value.Str "hello";
      Value.List [];
      Value.List [ Value.Int 1; Value.Str "x"; Value.List [ Value.Nil ] ];
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check int) "value size"
        (String.length (Codec.to_string Codec.encode_value v))
        (Value.wire_size v))
    values;
  let log =
    Wlog.create ~replicas:3
      ~initial:[ ("greet", Value.Str "hi"); ("xs", Value.List [ Value.Int 7 ]) ]
  in
  for seq = 1 to 8 do
    ignore
      (Wlog.accept log
         (Write.make
            ~id:{ origin = 0; seq }
            ~accept_time:(float_of_int seq)
            ~op:
              (if seq mod 2 = 0 then Op.Add ("x", 1.5)
               else Op.Append ("xs", Value.Str (String.make seq 'a')))
            ~affects:[ { Write.conit = "conit-" ^ string_of_int (seq mod 2);
                         nweight = 1.0; oweight = 0.5 } ]))
  done;
  ignore (Wlog.commit_stable log ~cover:[| infinity; infinity; infinity |]);
  let snap = Wlog.snapshot log in
  Alcotest.(check int) "snapshot size"
    (String.length (Codec.snapshot_to_string snap))
    (Codec.snapshot_byte_size snap)

let base_suite =
  [
    test_value_roundtrip;
    Alcotest.test_case "value nan" `Quick test_value_nan_roundtrip;
    Alcotest.test_case "op round trip" `Quick test_op_roundtrip;
    Alcotest.test_case "named proc applies" `Quick test_named_proc_applies;
    test_write_roundtrip;
    Alcotest.test_case "write size memoized" `Quick test_write_size_memoized;
    Alcotest.test_case "decode_writes shares weights" `Quick
      test_decode_writes_shares_weights;
    Alcotest.test_case "vector round trip" `Quick test_vector_roundtrip;
    Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
    Alcotest.test_case "arithmetic byte sizes" `Quick test_byte_sizes;
  ]

(* A whole system whose writes run a procedure from its table: it converges,
   and every accepted write round-trips the codec. *)
let test_fully_serialisable_system () =
  let open Tact_sim in
  let open Tact_replica in
  let procs =
    [ ( "codec.bump",
        fun arg db -> Op.Applied (Db.add db "x" (Value.to_float arg)) ) ]
  in
  let sys =
    System.create
      ~topology:(Topology.uniform ~n:3 ~latency:0.03 ~bandwidth:1e6)
      ~config:{ Config.default with Config.antientropy_period = Some 0.5; procs }
      ()
  in
  let engine = System.engine sys in
  for k = 1 to 9 do
    Engine.schedule engine
      ~delay:(0.3 *. float_of_int k)
      (fun () ->
        Replica.submit_write (System.replica sys (k mod 3)) ~deps:[]
          ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Named ("codec.bump", Value.Float 1.0))
          ~k:ignore)
  done;
  System.run ~until:60.0 sys;
  Alcotest.(check bool) "converged" true (System.converged sys);
  Alcotest.(check bool) "value" true
    (feq (Db.get_float (Replica.db (System.replica sys 0)) "x") 9.0);
  List.iter
    (fun (w : Write.t) ->
      let w' = Codec.write_of_string (Codec.write_to_string w) in
      Alcotest.(check bool) "write round-trips" true (w'.Write.id = w.Write.id))
    (System.all_writes sys)

let system_suite =
  [ Alcotest.test_case "fully serialisable system" `Quick test_fully_serialisable_system ]

let suite = base_suite @ system_suite
