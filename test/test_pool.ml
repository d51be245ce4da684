(* Domain pool: ordering, exception propagation, nested submission,
   and empty-batch edge cases. *)

open Tact_util

exception Boom of int

let test_map_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      (* Uneven workloads: results must still come back in input order. *)
      let xs = List.init 100 (fun i -> i) in
      let spin n =
        let acc = ref 0 in
        for i = 1 to (n mod 7) * 1000 do
          acc := !acc + i
        done;
        ignore !acc;
        n * n
      in
      let ys = Pool.map_list p spin xs in
      Alcotest.(check (list int)) "squares in order"
        (List.map (fun i -> i * i) xs)
        ys)

let test_map_array_order_and_failure () =
  Pool.with_pool ~jobs:4 (fun p ->
      let xs = Array.init 64 (fun i -> i) in
      let ys = Pool.map_array p (fun i -> i * i) xs in
      Alcotest.(check (array int)) "squares in order"
        (Array.map (fun i -> i * i) xs)
        ys;
      (* Earliest failing element wins, regardless of completion order. *)
      Alcotest.check_raises "earliest element's exception" (Boom 3) (fun () ->
          ignore
            (Pool.map_array p
               (fun i -> if i >= 3 then raise (Boom i) else i)
               xs)))

let test_await_exception () =
  Pool.with_pool ~jobs:2 (fun p ->
      let ok = Pool.submit p (fun () -> 41 + 1) in
      let bad = Pool.submit p (fun () -> raise (Boom 7)) in
      Alcotest.(check int) "healthy future" 42 (Pool.await p ok);
      Alcotest.check_raises "await re-raises" (Boom 7) (fun () ->
          ignore (Pool.await p bad)))

let test_map_list_first_failure () =
  Pool.with_pool ~jobs:4 (fun p ->
      (* Several elements fail; map_list must deterministically surface the
         earliest one in input order. *)
      match
        Pool.map_list p
          (fun i -> if i mod 10 = 3 then raise (Boom i) else i)
          (List.init 50 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected a failure"
      | exception Boom 3 -> ()
      | exception Boom n -> Alcotest.failf "raised Boom %d, wanted Boom 3" n)

let test_post_error_at_idle () =
  Pool.with_pool ~jobs:2 (fun p ->
      Pool.post p (fun () -> ());
      Pool.post p (fun () -> raise (Boom 1));
      Alcotest.check_raises "await_idle re-raises the post error" (Boom 1)
        (fun () -> Pool.await_idle p);
      (* The error is consumed: the pool is reusable afterwards. *)
      Pool.post p (fun () -> ());
      Pool.await_idle p)

let test_nested_submit () =
  Pool.with_pool ~jobs:3 (fun p ->
      (* A task fans out subtasks and awaits them from inside the pool:
         await must help rather than deadlock, even with jobs:1. *)
      let fut =
        Pool.submit p (fun () ->
            let subs =
              List.init 20 (fun i -> Pool.submit p (fun () -> i * 2))
            in
            List.fold_left (fun acc f -> acc + Pool.await p f) 0 subs)
      in
      Alcotest.(check int) "sum of doubles" 380 (Pool.await p fut));
  Pool.with_pool ~jobs:1 (fun p ->
      let fut =
        Pool.submit p (fun () ->
            let a = Pool.submit p (fun () -> 10) in
            let b = Pool.submit p (fun () -> 20) in
            Pool.await p a + Pool.await p b)
      in
      Alcotest.(check int) "nested on a single worker" 30 (Pool.await p fut))

let test_recursive_fanout () =
  (* Tree-shaped fan-out through post (the explorer's shape): every node
     posts its children; await_idle must cover transitively submitted work. *)
  Pool.with_pool ~jobs:4 (fun p ->
      let count = Sync.Counter.make () in
      let rec node depth () =
        ignore (Sync.Counter.incr count);
        if depth > 0 then
          for _ = 1 to 3 do
            Pool.post p (node (depth - 1))
          done
      in
      Pool.post p (node 6);
      Pool.await_idle p;
      (* 3^0 + ... + 3^6 = 1093 *)
      Alcotest.(check int) "all tree nodes ran" 1093 (Sync.Counter.get count))

let test_empty () =
  Pool.with_pool ~jobs:2 (fun p ->
      Pool.await_idle p;
      Alcotest.(check (list int)) "empty map_list" [] (Pool.map_list p (fun x -> x) []);
      Pool.await_idle p);
  (* jobs below 1 clamps to the calling domain alone rather than failing *)
  Pool.with_pool ~jobs:0 (fun p ->
      Alcotest.(check int) "clamped size" 1 (Pool.size p);
      Alcotest.(check (list int)) "still works" [ 2; 4 ]
        (Pool.map_list p (fun x -> 2 * x) [ 1; 2 ]));
  (* The size counts the caller: jobs domains in all. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          Alcotest.(check int) (Printf.sprintf "size at jobs:%d" jobs) jobs
            (Pool.size p)))
    [ 1; 2; 3 ]

let test_shutdown_rejects () =
  let p = Pool.create ~jobs:2 in
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  match Pool.submit p (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown must fail"
  | exception Invalid_argument _ -> ()

let test_sync_primitives () =
  Pool.with_pool ~jobs:4 (fun p ->
      let c = Sync.Counter.make () in
      let cell = Sync.Cell.make 0 in
      let m = Sync.Map.create 64 in
      List.iter
        (fun f -> Pool.post p f)
        (List.init 200 (fun i () ->
             ignore (Sync.Counter.incr c);
             Sync.Cell.update cell (fun v -> v + 1);
             Sync.Map.update m (i mod 32) (function
               | None -> Some 1
               | Some n -> Some (n + 1))));
      Pool.await_idle p;
      Alcotest.(check int) "counter" 200 (Sync.Counter.get c);
      Alcotest.(check int) "cell" 200 (Sync.Cell.get cell);
      Alcotest.(check int) "map keys" 32 (Sync.Map.length m);
      let total = ref 0 in
      for k = 0 to 31 do
        match Sync.Map.find_opt m k with
        | Some n -> total := !total + n
        | None -> Alcotest.failf "key %d missing" k
      done;
      Alcotest.(check int) "map total" 200 !total)

(* At jobs:1 the pool spawns no worker: the caller is its only domain. *)
let test_single_domain_runs_in_caller () =
  let self = Domain.self () in
  Pool.with_pool ~jobs:1 (fun p ->
      let ids = Pool.map_list p (fun _ -> Domain.self ()) (List.init 200 Fun.id) in
      Alcotest.(check bool) "map_list tasks ran in the caller" true
        (List.for_all (fun d -> d = self) ids);
      let foreign = Sync.Counter.make () and ran = Sync.Counter.make () in
      let rec node depth () =
        ignore (Sync.Counter.incr ran);
        if Domain.self () <> self then ignore (Sync.Counter.incr foreign);
        if depth > 0 then
          for _ = 1 to 3 do
            Pool.post p (node (depth - 1))
          done
      in
      Pool.post p (node 4);
      Pool.await_idle p;
      Alcotest.(check int) "post tree drained" 121 (Sync.Counter.get ran);
      Alcotest.(check int) "post tasks ran in the caller" 0
        (Sync.Counter.get foreign))

let test_nested_await_without_workers () =
  Pool.with_pool ~jobs:1 (fun p ->
      let fut =
        Pool.submit p (fun () -> Pool.await p (Pool.submit p (fun () -> 7)) * 6)
      in
      Alcotest.(check int) "nested await completes" 42 (Pool.await p fut))

(* Pure in [jobs]: no pool of [cores + 1] domains is created. *)
let test_oversubscription_is_exact () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check bool) "jobs = cores fits" true
    (Option.is_none (Pool.oversubscription ~jobs:cores));
  Alcotest.(check bool) "jobs = cores + 1 warns" true
    (Option.is_some (Pool.oversubscription ~jobs:(cores + 1)))

let suite =
  [
    Alcotest.test_case "map_list preserves order" `Quick test_map_order;
    Alcotest.test_case "map_array order and earliest failure" `Quick
      test_map_array_order_and_failure;
    Alcotest.test_case "await re-raises task exceptions" `Quick
      test_await_exception;
    Alcotest.test_case "map_list surfaces earliest failure" `Quick
      test_map_list_first_failure;
    Alcotest.test_case "post errors surface at await_idle" `Quick
      test_post_error_at_idle;
    Alcotest.test_case "nested submit helps instead of deadlocking" `Quick
      test_nested_submit;
    Alcotest.test_case "recursive fan-out drains transitively" `Quick
      test_recursive_fanout;
    Alcotest.test_case "empty batches and clamped sizes" `Quick test_empty;
    Alcotest.test_case "shutdown is idempotent and final" `Quick
      test_shutdown_rejects;
    Alcotest.test_case "sync primitives under contention" `Quick
      test_sync_primitives;
    Alcotest.test_case "jobs:1 runs every task in the caller" `Quick
      test_single_domain_runs_in_caller;
    Alcotest.test_case "nested await completes with no worker" `Quick
      test_nested_await_without_workers;
    Alcotest.test_case "oversubscription warns past the cores" `Quick
      test_oversubscription_is_exact;
  ]
