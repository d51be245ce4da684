(* Value, Version_vector, Db, Op, Write. *)

open Tact_store

let feq a b = Float.abs (a -. b) < 1e-9

(* --- Value ------------------------------------------------------------ *)

let test_value_equal () =
  Alcotest.(check bool) "nil" true (Value.equal Value.Nil Value.Nil);
  Alcotest.(check bool) "int" true (Value.equal (Value.Int 3) (Value.Int 3));
  Alcotest.(check bool) "int neq" false (Value.equal (Value.Int 3) (Value.Int 4));
  Alcotest.(check bool) "cross-type" false (Value.equal (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check bool) "list" true
    (Value.equal (Value.List [ Value.Int 1; Value.Str "a" ])
       (Value.List [ Value.Int 1; Value.Str "a" ]));
  Alcotest.(check bool) "list length" false
    (Value.equal (Value.List [ Value.Int 1 ]) (Value.List []))

let test_value_compare_total () =
  let vs =
    [ Value.Nil; Value.Int 1; Value.Int 2; Value.Float 0.5; Value.Str "z";
      Value.List [ Value.Nil ] ]
  in
  (* Total order: antisymmetric and transitive enough to sort. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          Alcotest.(check bool) "antisymmetric" true (compare c1 0 = compare 0 c2))
        vs)
    vs

let test_value_conversions () =
  Alcotest.(check int) "nil->0" 0 (Value.to_int Value.Nil);
  Alcotest.(check int) "float->int" 3 (Value.to_int (Value.Float 3.7));
  Alcotest.(check bool) "int->float" true (feq (Value.to_float (Value.Int 5)) 5.0);
  Alcotest.(check int) "nil->[] len" 0 (List.length (Value.to_list Value.Nil));
  Alcotest.check_raises "str->int raises" (Invalid_argument "Value.to_int")
    (fun () -> ignore (Value.to_int (Value.Str "x")))

let test_value_byte_size () =
  Alcotest.(check int) "int" 9 (Value.wire_size (Value.Int 1));
  Alcotest.(check int) "str" 14 (Value.wire_size (Value.Str "hello"));
  Alcotest.(check bool) "list grows" true
    (Value.wire_size (Value.List [ Value.Int 1; Value.Int 2 ])
    > Value.wire_size (Value.List [ Value.Int 1 ]))

let test_value_to_string () =
  Alcotest.(check string) "render" "[1; \"a\"]"
    (Value.to_string (Value.List [ Value.Int 1; Value.Str "a" ]))

(* --- Version_vector ----------------------------------------------------- *)

let test_vv_basics () =
  let v = Version_vector.create 3 in
  Alcotest.(check int) "size" 3 (Version_vector.size v);
  Alcotest.(check int) "init zero" 0 (Version_vector.get v 1);
  Version_vector.set v 1 5;
  Alcotest.(check int) "set/get" 5 (Version_vector.get v 1);
  Alcotest.(check bool) "covers" true (Version_vector.covers v ~origin:1 ~seq:5);
  Alcotest.(check bool) "not covers" false (Version_vector.covers v ~origin:1 ~seq:6);
  Alcotest.(check int) "total" 5 (Version_vector.total v);
  Alcotest.(check string) "render" "<0,5,0>" (Version_vector.to_string v)

let test_vv_copy_isolated () =
  let v = Version_vector.create 2 in
  let w = Version_vector.copy v in
  Version_vector.set v 0 9;
  Alcotest.(check int) "copy unaffected" 0 (Version_vector.get w 0)

let test_vv_merge_dominates () =
  let a = Version_vector.create 3 and b = Version_vector.create 3 in
  Version_vector.set a 0 2;
  Version_vector.set b 1 3;
  Alcotest.(check bool) "incomparable" false
    (Version_vector.dominates a b || Version_vector.dominates b a);
  Version_vector.merge_into a b;
  Alcotest.(check bool) "merge dominates both" true
    (Version_vector.dominates a b && Version_vector.get a 0 = 2);
  Alcotest.(check bool) "reflexive" true (Version_vector.dominates a a)

let vv_gen =
  QCheck.Gen.(
    map
      (fun l ->
        let v = Version_vector.create 4 in
        List.iteri (fun i x -> Version_vector.set v i x) l;
        v)
      (list_size (return 4) (int_bound 20)))

let vv_arb = QCheck.make ~print:(fun a -> Version_vector.to_string a) vv_gen

let merge_of a b =
  let c = Version_vector.copy a in
  Version_vector.merge_into c b;
  c

let test_vv_lattice =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"merge is a join (lub)" ~count:300
       QCheck.(pair vv_arb vv_arb)
       (fun (a, b) ->
         let m = merge_of a b in
         Version_vector.dominates m a && Version_vector.dominates m b
         && Version_vector.equal (merge_of a b) (merge_of b a)
         && Version_vector.equal (merge_of a a) a))

let test_vv_merge_assoc =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"merge associative" ~count:300
       QCheck.(triple vv_arb vv_arb vv_arb)
       (fun (a, b, c) ->
         Version_vector.equal (merge_of (merge_of a b) c) (merge_of a (merge_of b c))))

(* --- Db ------------------------------------------------------------- *)

let test_db_get_set () =
  let db = Db.create [ ("a", Value.Int 1) ] in
  Alcotest.(check bool) "initial" true (Value.equal (Db.get db "a") (Value.Int 1));
  Alcotest.(check bool) "missing is nil" true (Value.equal (Db.get db "zzz") Value.Nil);
  Db.set db "b" (Value.Str "x");
  Alcotest.(check bool) "set" true (Value.equal (Db.get db "b") (Value.Str "x"));
  Alcotest.(check int) "size" 2 (Db.size db)

let test_db_add () =
  let db = Db.create [] in
  ignore (Db.add db "c" 2.5);
  let stored = Db.add db "c" 1.5 in
  Alcotest.(check bool) "accumulates" true (feq (Db.get_float db "c") 4.0);
  Alcotest.(check bool) "returns the stored value" true
    (Value.equal stored (Db.get db "c"));
  Alcotest.(check int) "get_int truncates" 4 (Db.get_int db "c")

let test_db_append_newest_first () =
  let db = Db.create [] in
  Db.append db "l" (Value.Int 1);
  Db.append db "l" (Value.Int 2);
  Alcotest.(check bool) "newest first" true
    (Value.equal (Db.get db "l") (Value.List [ Value.Int 2; Value.Int 1 ]))

(* A copy owns its bindings: no mutation on either side, whether it
   rebinds a key, adds to one in place or reverts a journal, reaches the
   other. *)
let test_db_copy_isolated () =
  let db = Db.create [ ("a", Value.Int 1); ("n", Value.Float 1.0) ] in
  let cp = Db.copy db in
  let is d k v = Value.equal (Db.get d k) v in
  Db.set db "a" (Value.Int 9);
  Alcotest.(check bool) "copy unaffected" true (is cp "a" (Value.Int 1));
  (* add on an existing key, both ways *)
  ignore (Db.add db "n" 2.0);
  Alcotest.(check bool) "add: original" true (is db "n" (Value.Float 3.0));
  Alcotest.(check bool) "add: copy unaffected" true (is cp "n" (Value.Float 1.0));
  ignore (Db.add cp "n" 4.0);
  Alcotest.(check bool) "add on copy: copy" true (is cp "n" (Value.Float 5.0));
  Alcotest.(check bool) "add on copy: original unaffected" true (is db "n" (Value.Float 3.0));
  (* add on a new key *)
  ignore (Db.add db "m" 5.0);
  Alcotest.(check bool) "new key: copy unaffected" true (is cp "m" Value.Nil);
  Alcotest.(check int) "new key: copy size" 2 (Db.size cp);
  ignore (Db.add cp "m" 1.0);
  Alcotest.(check bool) "new key on copy: original unaffected" true (is db "m" (Value.Float 5.0));
  (* set on the copy *)
  Db.set cp "a" (Value.Int 7);
  Alcotest.(check bool) "set on copy: original unaffected" true (is db "a" (Value.Int 9));
  Alcotest.(check bool) "set on copy: copy" true (is cp "a" (Value.Int 7));
  (* revert of a recorded add on a copy: the committed-image pattern *)
  let (), u =
    Db.recording db (fun () ->
        ignore (Db.add db "n" 10.0);
        ignore (Db.add db "fresh" 1.0))
  in
  let back = Db.copy db in
  Db.revert back u;
  Alcotest.(check bool) "revert: copy restored" true (is back "n" (Value.Float 3.0));
  Alcotest.(check bool) "revert: new key gone from copy" true (is back "fresh" Value.Nil);
  Alcotest.(check bool) "revert: original keeps the add" true (is db "n" (Value.Float 13.0));
  Alcotest.(check bool) "revert: original keeps the new key" true (is db "fresh" (Value.Float 1.0));
  ignore (Db.add db "n" 1.0);
  Alcotest.(check bool) "revert: copy unaffected by a later add" true
    (is back "n" (Value.Float 3.0))

let test_db_equal () =
  let a = Db.create [ ("x", Value.Int 1) ] in
  let b = Db.create [] in
  Alcotest.(check bool) "differ" false (Db.equal a b);
  Db.set b "x" (Value.Int 1);
  Alcotest.(check bool) "equal" true (Db.equal a b);
  (* A key explicitly set to Nil equals a missing key. *)
  Db.set a "ghost" Value.Nil;
  Alcotest.(check bool) "nil = missing" true (Db.equal a b)

let test_db_keys () =
  let db = Db.create [ ("a", Value.Int 1); ("b", Value.Int 2) ] in
  Alcotest.(check int) "two keys" 2 (List.length (Db.keys db))

(* --- Op ------------------------------------------------------------- *)

let test_op_set_add_append () =
  let db = Db.create [] in
  (match Op.apply ~procs:[] (Op.Set ("k", Value.Int 7)) db with
  | Op.Applied v -> Alcotest.(check bool) "set returns value" true (Value.equal v (Value.Int 7))
  | Op.Conflict _ -> Alcotest.fail "set conflicted");
  (match Op.apply ~procs:[] (Op.Add ("n", 3.0)) db with
  | Op.Applied v -> Alcotest.(check bool) "add returns total" true (feq (Value.to_float v) 3.0)
  | Op.Conflict _ -> Alcotest.fail "add conflicted");
  ignore (Op.apply ~procs:[] (Op.Append ("l", Value.Int 1)) db);
  Alcotest.(check int) "append worked" 1 (List.length (Value.to_list (Db.get db "l")))

let test_op_noop () =
  let db = Db.create [] in
  (match Op.apply ~procs:[] Op.Noop db with
  | Op.Applied v -> Alcotest.(check bool) "nil" true (Value.equal v Value.Nil)
  | Op.Conflict _ -> Alcotest.fail "noop conflicted");
  Alcotest.(check int) "db untouched" 0 (Db.size db)

let test_op_guarded () =
  let procs =
    [
      ( "withdraw",
        fun arg db ->
          let amount = Value.to_float arg in
          if Db.get_float db "bal" >= amount then
            Op.Applied (Db.add db "bal" (-.amount))
          else Op.Conflict "insufficient" );
    ]
  in
  let op = Op.Named ("withdraw", Value.Float 10.0) in
  let db = Db.create [ ("bal", Value.Float 15.0) ] in
  (match Op.apply ~procs op db with
  | Op.Applied v -> Alcotest.(check bool) "first succeeds" true (feq (Value.to_float v) 5.0)
  | Op.Conflict _ -> Alcotest.fail "unexpected conflict");
  (match Op.apply ~procs op db with
  | Op.Conflict r -> Alcotest.(check string) "alt reason" "insufficient" r
  | Op.Applied _ -> Alcotest.fail "should conflict");
  Alcotest.(check bool) "conflict left state alone" true (feq (Db.get_float db "bal") 5.0)

let test_op_outcome_helpers () =
  Alcotest.(check bool) "conflicted" true (Op.conflicted (Op.Conflict "x"));
  Alcotest.(check bool) "applied" false (Op.conflicted (Op.Applied Value.Nil));
  Alcotest.(check bool) "result of conflict is nil" true
    (Value.equal (Op.result (Op.Conflict "x")) Value.Nil)

let test_op_describe_size () =
  Alcotest.(check bool) "describe" true (String.length (Op.describe (Op.Add ("k", 1.0))) > 0);
  Alcotest.(check bool) "sizes positive" true
    (List.for_all
       (fun op -> Op.wire_size op > 0)
       [ Op.Noop; Op.Set ("k", Value.Int 1); Op.Add ("k", 1.0);
         Op.Append ("k", Value.Nil); Op.Named ("g", Value.Nil) ])

(* --- Write ------------------------------------------------------------ *)

let w ~origin ~seq ~t affects =
  Write.make ~id:{ origin; seq } ~accept_time:t ~op:Op.Noop
    ~affects:
      (List.map (fun (c, nw, ow) -> { Write.conit = c; nweight = nw; oweight = ow }) affects)

let test_write_weights () =
  let x = w ~origin:0 ~seq:1 ~t:1.0 [ ("a", 2.0, 0.5); ("b", 0.0, 0.0) ] in
  Alcotest.(check bool) "nweight" true (feq (Write.nweight x "a") 2.0);
  Alcotest.(check bool) "oweight" true (feq (Write.oweight x "a") 0.5);
  Alcotest.(check bool) "absent conit 0" true (feq (Write.nweight x "zzz") 0.0);
  Alcotest.(check bool) "affects a" true (Write.affects_conit x "a");
  Alcotest.(check bool) "zero weights don't affect" false (Write.affects_conit x "b");
  Alcotest.(check bool) "total oweight" true (feq (Write.total_oweight x) 0.5)

let test_write_ts_order () =
  let a = w ~origin:0 ~seq:1 ~t:1.0 [] in
  let b = w ~origin:1 ~seq:1 ~t:1.0 [] in
  let c = w ~origin:0 ~seq:2 ~t:2.0 [] in
  Alcotest.(check bool) "time dominates" true (Write.ts_compare a c < 0);
  Alcotest.(check bool) "origin tiebreak" true (Write.ts_compare a b < 0);
  Alcotest.(check int) "reflexive" 0 (Write.ts_compare a a)

let test_write_ts_total_order =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"ts_compare total order" ~count:200
       QCheck.(
         list
           (triple (int_bound 3) (int_bound 5) (float_bound_exclusive 10.0)))
       (fun triples ->
         let ws =
           List.map (fun (o, s, t) -> w ~origin:o ~seq:(s + 1) ~t []) triples
         in
         let sorted = List.sort Write.ts_compare ws in
         (* Sorting is stable w.r.t. the order: adjacent pairs non-decreasing. *)
         let rec ok = function
           | a :: (b :: _ as tl) -> Write.ts_compare a b <= 0 && ok tl
           | _ -> true
         in
         ok sorted))

let test_write_byte_size () =
  let small = w ~origin:0 ~seq:1 ~t:1.0 [ ("a", 1.0, 1.0) ] in
  let big = w ~origin:0 ~seq:1 ~t:1.0 [ ("a", 1.0, 1.0); ("bbbb", 1.0, 1.0) ] in
  Alcotest.(check bool) "more weights, more bytes" true
    (Write.byte_size big > Write.byte_size small)

let test_write_to_string () =
  Alcotest.(check bool) "mentions id" true
    (String.length (Write.to_string (w ~origin:2 ~seq:7 ~t:1.5 [])) > 0)

let suite =
  [
    Alcotest.test_case "value equal" `Quick test_value_equal;
    Alcotest.test_case "value compare total" `Quick test_value_compare_total;
    Alcotest.test_case "value conversions" `Quick test_value_conversions;
    Alcotest.test_case "value byte size" `Quick test_value_byte_size;
    Alcotest.test_case "value to_string" `Quick test_value_to_string;
    Alcotest.test_case "vv basics" `Quick test_vv_basics;
    Alcotest.test_case "vv copy isolated" `Quick test_vv_copy_isolated;
    Alcotest.test_case "vv merge/dominates" `Quick test_vv_merge_dominates;
    test_vv_lattice;
    test_vv_merge_assoc;
    Alcotest.test_case "db get/set" `Quick test_db_get_set;
    Alcotest.test_case "db add" `Quick test_db_add;
    Alcotest.test_case "db append newest-first" `Quick test_db_append_newest_first;
    Alcotest.test_case "db copy isolated" `Quick test_db_copy_isolated;
    Alcotest.test_case "db equal" `Quick test_db_equal;
    Alcotest.test_case "db keys" `Quick test_db_keys;
    Alcotest.test_case "op set/add/append" `Quick test_op_set_add_append;
    Alcotest.test_case "op noop" `Quick test_op_noop;
    Alcotest.test_case "op guarded" `Quick test_op_guarded;
    Alcotest.test_case "op outcome helpers" `Quick test_op_outcome_helpers;
    Alcotest.test_case "op describe/size" `Quick test_op_describe_size;
    Alcotest.test_case "write weights" `Quick test_write_weights;
    Alcotest.test_case "write ts order" `Quick test_write_ts_order;
    test_write_ts_total_order;
    Alcotest.test_case "write byte size" `Quick test_write_byte_size;
    Alcotest.test_case "write to_string" `Quick test_write_to_string;
  ]
