(* Domain pool: one task stack under one lock.  See pool.mli for the contract.
   A task is a whole simulation run or experiment, so one mutex touched a few
   times per task does not contend.  Every deposit and completion broadcasts
   [cond], and a thread waits only after finding, under [lock], its condition
   unmet and the stack empty, so no wakeup is lost. *)

type task = unit -> unit

(* Fills vacated stack slots, so a finished task's closure is not kept alive. *)
let no_task : task = fun () -> ()

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

(* [f_state] is only ever touched under the pool's [lock]. *)
type 'a future = { mutable f_state : 'a state }

type t = {
  njobs : int;
  tasks : task Deque.t; (* pushed at the back *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable pending : int; (* tasks submitted and not yet completed *)
  mutable error : (exn * Printexc.raw_backtrace) option; (* first post error *)
  mutable closed : bool; (* no more submissions; workers exit when idle *)
  mutable domains : unit Domain.t list;
}

let size t = t.njobs

(* Run tasks off the stack until [probe] (called under [lock]) returns
   [Some]; wait only while the stack is empty.  Workers take the newest task
   (depth-first); a caller waiting in [await]/[await_idle] takes the oldest.
   All-newest kept the frontier so small that, on 2 cores, allocation-heavy
   trees ran up to 30% slower, in nearly three times the major GC cycles. *)
let help_until ~oldest t probe =
  Mutex.lock t.lock;
  let rec go () =
    match probe () with
    | Some v ->
      Mutex.unlock t.lock;
      v
    | None when Deque.is_empty t.tasks ->
      Condition.wait t.cond t.lock;
      go ()
    | None ->
      let task = (if oldest then Deque.pop_front else Deque.pop_back) t.tasks in
      Mutex.unlock t.lock;
      task ();
      Mutex.lock t.lock;
      go ()
  in
  go ()

let enqueue t task =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Tact_util.Pool: submit after shutdown"
  end;
  Deque.push_back t.tasks task;
  t.pending <- t.pending + 1;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

(* Under [lock]: record a task's outcome with [settle] and count it done. *)
let complete t settle =
  Mutex.lock t.lock;
  settle ();
  t.pending <- t.pending - 1;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

let submit t f =
  let fut = { f_state = Pending } in
  enqueue t (fun () ->
      let r =
        try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ())
      in
      complete t (fun () -> fut.f_state <- r));
  fut

let post t f =
  enqueue t (fun () ->
      match f () with
      | () -> complete t ignore
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        complete t (fun () ->
            if Option.is_none t.error then t.error <- Some (e, bt)))

let await t fut =
  match
    help_until ~oldest:true t (fun () ->
        match fut.f_state with Pending -> None | st -> Some st)
  with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let await_idle t =
  let err =
    help_until ~oldest:true t (fun () ->
        if t.pending > 0 then None
        else
          let e = t.error in
          t.error <- None;
          Some e)
  in
  match err with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map_list t f xs =
  List.map (await t) (List.map (fun x -> submit t (fun () -> f x)) xs)

let map_array t f xs =
  Array.map (await t) (Array.map (fun x -> submit t (fun () -> f x)) xs)

let create ~jobs =
  let njobs = Stdlib.max 1 jobs in
  let t =
    {
      njobs;
      tasks = Deque.create ~filler:no_task ();
      lock = Mutex.create ();
      cond = Condition.create ();
      pending = 0;
      error = None;
      closed = false;
      domains = [];
    }
  in
  let worker () =
    help_until ~oldest:false t (fun () -> if t.closed then Some () else None)
  in
  (* The caller helps inside [await]/[await_idle], so it is the last of the
     [njobs] domains. *)
  t.domains <- List.init (njobs - 1) (fun _ -> Domain.spawn worker);
  t

let shutdown t =
  if not t.closed then begin
    (* Drain first; a post error is re-raised after the join, not before. *)
    let err =
      match await_idle t with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock t.lock;
    t.closed <- true;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    List.iter Domain.join t.domains;
    t.domains <- [];
    match err with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let with_pool ~jobs f =
  let t = create ~jobs in
  match f t with
  | v ->
    shutdown t;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    (try shutdown t with _ -> ());
    Printexc.raise_with_backtrace e bt

let recommended_jobs ?(cap = max_int) () =
  max 1 (min cap (Domain.recommended_domain_count ()))

let oversubscription ~jobs =
  let cores = Domain.recommended_domain_count () in
  if jobs > cores then
    Some
      (Printf.sprintf
         "-j %d exceeds the %d core%s available; the run may be slower than at -j %d"
         jobs cores (if cores = 1 then "" else "s") cores)
  else None
