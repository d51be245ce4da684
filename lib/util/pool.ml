(* Work-stealing domain pool.  See pool.mli for the contract.

   Locking discipline: each worker deque has its own mutex; everything else
   (injection queue, counters, future states, the error slot) lives under the
   single [lock].  Tasks are coarse here — a task is a whole simulation run
   or experiment — so one global mutex touched a handful of times per task is
   nowhere near contention, and it buys a simple no-lost-wakeup protocol:

   - every deposit bumps [hint] under [lock] (after the task is visible) and
     broadcasts if anyone is waiting;
   - a thread that found nothing re-reads [hint] under [lock] before
     sleeping; if it moved since its failed scan, it rescans instead.

   OCaml's [Condition] has no timed wait, so this stamp protocol is what
   makes sleeping safe without polling. *)

type task = unit -> unit

(* Fills the deque slots of tasks already taken, so a finished task's closure
   is not kept alive by its old slot. *)
let no_task : task = fun () -> ()

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

(* Future state is guarded by the pool's [lock]; the field is mutable but
   only ever touched under it. *)
type 'a future = { mutable f_state : 'a state }

type t = {
  njobs : int;
  queues : task Deque.t array; (* queues.(i) guarded by qlocks.(i) *)
  qlocks : Mutex.t array;
  inject : task Queue.t; (* guarded by lock *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable hint : int; (* deposit stamp; bumped on every enqueue/completion *)
  mutable nwaiting : int; (* threads blocked on cond *)
  mutable pending : int; (* tasks submitted and not yet completed *)
  mutable error : (exn * Printexc.raw_backtrace) option; (* first post error *)
  mutable stop : bool;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

(* Which pool/worker the current domain belongs to, so nested submissions
   land in the submitting worker's own deque. *)
type membership = Member : t * int -> membership

let current : membership option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let size t = t.njobs

(* ------------------------------------------------------------------ *)
(* Task acquisition *)

let pop_own t i =
  Mutex.lock t.qlocks.(i);
  let r =
    if Deque.is_empty t.queues.(i) then None
    else Some (Deque.pop_back t.queues.(i))
  in
  Mutex.unlock t.qlocks.(i);
  r

let pop_inject t =
  Mutex.lock t.lock;
  let r = if Queue.is_empty t.inject then None else Some (Queue.pop t.inject) in
  Mutex.unlock t.lock;
  r

(* Steal the older half of the first non-empty victim deque; the oldest
   stolen task runs immediately, the rest seed our own deque. *)
let steal t i =
  let rec go k =
    if k >= t.njobs then None
    else
      let v = (i + 1 + k) mod t.njobs in
      if v = i then go (k + 1)
      else begin
        Mutex.lock t.qlocks.(v);
        let len = Deque.length t.queues.(v) in
        if len = 0 then begin
          Mutex.unlock t.qlocks.(v);
          go (k + 1)
        end
        else begin
          let take = (len + 1) / 2 in
          let stolen =
            Array.init take (fun _ -> Deque.pop_front t.queues.(v))
          in
          Mutex.unlock t.qlocks.(v);
          if take > 1 then begin
            Mutex.lock t.qlocks.(i);
            for j = 1 to take - 1 do
              Deque.push_back t.queues.(i) stolen.(j)
            done;
            Mutex.unlock t.qlocks.(i)
          end;
          Some stolen.(0)
        end
      end
  in
  go 0

let worker_task t i =
  match pop_own t i with
  | Some _ as s -> s
  | None -> ( match pop_inject t with Some _ as s -> s | None -> steal t i)

(* Acquisition for whoever is running on the current domain: a worker uses
   its own deque first; an outside helper (the owner inside await/await_idle)
   drains the injection queue, then single tasks off deque fronts. *)
let help_task t =
  match Domain.DLS.get current with
  | Some (Member (t', i)) when t' == t -> worker_task t i
  | _ -> (
    match pop_inject t with
    | Some _ as s -> s
    | None ->
      let rec go v =
        if v >= t.njobs then None
        else begin
          Mutex.lock t.qlocks.(v);
          let r =
            if Deque.is_empty t.queues.(v) then None
            else Some (Deque.pop_front t.queues.(v))
          in
          Mutex.unlock t.qlocks.(v);
          match r with Some _ -> r | None -> go (v + 1)
        end
      in
      go 0)

(* ------------------------------------------------------------------ *)
(* Submission *)

(* Under [lock]: record a deposit and wake scanners. *)
let deposited t =
  t.pending <- t.pending + 1;
  t.hint <- t.hint + 1;
  if t.nwaiting > 0 then Condition.broadcast t.cond

let enqueue t task =
  if t.closed then invalid_arg "Tact_util.Pool: submit after shutdown";
  match Domain.DLS.get current with
  | Some (Member (t', i)) when t' == t ->
    (* Push under [lock], so the task is counted in [pending] before a thief
       can run it to completion: otherwise a child finishing first could
       bring [pending] to zero while its parent still runs, and [await_idle]
       would return early.  Nothing takes [lock] while holding a deque lock,
       so this nesting cannot deadlock. *)
    Mutex.lock t.lock;
    Mutex.lock t.qlocks.(i);
    Deque.push_back t.queues.(i) task;
    Mutex.unlock t.qlocks.(i);
    deposited t;
    Mutex.unlock t.lock
  | _ ->
    Mutex.lock t.lock;
    Queue.push task t.inject;
    deposited t;
    Mutex.unlock t.lock

(* Under [lock]: record a completion and wake waiters. *)
let completed t =
  t.pending <- t.pending - 1;
  t.hint <- t.hint + 1;
  if t.nwaiting > 0 then Condition.broadcast t.cond

let submit t f =
  let fut = { f_state = Pending } in
  enqueue t (fun () ->
      let r =
        try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.lock;
      fut.f_state <- r;
      completed t;
      Mutex.unlock t.lock);
  fut

let post t f =
  enqueue t (fun () ->
      let err =
        try
          f ();
          None
        with e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.lock;
      (match (t.error, err) with
      | None, Some _ -> t.error <- err
      | _ -> ());
      completed t;
      Mutex.unlock t.lock)

(* ------------------------------------------------------------------ *)
(* Waiting *)

(* Help until [probe] (checked under [lock]) returns [Some]; between a
   failed scan and sleeping, the hint stamp is re-checked so a concurrent
   deposit forces a rescan rather than a lost wakeup. *)
let help_until t probe =
  let rec go () =
    Mutex.lock t.lock;
    let res = probe () in
    let h = t.hint in
    Mutex.unlock t.lock;
    match res with
    | Some v -> v
    | None -> (
      match help_task t with
      | Some task ->
        task ();
        go ()
      | None ->
        Mutex.lock t.lock;
        (match probe () with
        | Some v ->
          Mutex.unlock t.lock;
          v
        | None ->
          if t.hint = h then begin
            t.nwaiting <- t.nwaiting + 1;
            Condition.wait t.cond t.lock;
            t.nwaiting <- t.nwaiting - 1
          end;
          Mutex.unlock t.lock;
          go ()))
  in
  go ()

let await t fut =
  let st =
    help_until t (fun () ->
        match fut.f_state with Pending -> None | st -> Some st)
  in
  match st with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let take_error t =
  (* under [lock] *)
  let e = t.error in
  t.error <- None;
  e

let await_idle t =
  let err =
    help_until t (fun () ->
        if t.pending = 0 then Some (take_error t) else None)
  in
  match err with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map_list t f xs =
  let futs = List.map (fun x -> submit t (fun () -> f x)) xs in
  List.map (fun fut -> await t fut) futs

let map_array t f xs =
  let futs = Array.map (fun x -> submit t (fun () -> f x)) xs in
  Array.map (fun fut -> await t fut) futs

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let worker t i () =
  Domain.DLS.set current (Some (Member (t, i)));
  let rec loop () =
    match worker_task t i with
    | Some task ->
      task ();
      loop ()
    | None ->
      Mutex.lock t.lock;
      if t.stop then Mutex.unlock t.lock
      else begin
        let h = t.hint in
        Mutex.unlock t.lock;
        (* Rescan: a deposit may have landed between the failed scan above
           and reading the stamp. *)
        match worker_task t i with
        | Some task ->
          task ();
          loop ()
        | None ->
          Mutex.lock t.lock;
          if (not t.stop) && t.hint = h then begin
            t.nwaiting <- t.nwaiting + 1;
            Condition.wait t.cond t.lock;
            t.nwaiting <- t.nwaiting - 1
          end;
          Mutex.unlock t.lock;
          loop ()
      end
  in
  loop ()

let create ~jobs =
  let njobs = Stdlib.max 1 jobs in
  let t =
    {
      njobs;
      queues = Array.init njobs (fun _ -> Deque.create ~filler:no_task ());
      qlocks = Array.init njobs (fun _ -> Mutex.create ());
      inject = Queue.create ();
      lock = Mutex.create ();
      cond = Condition.create ();
      hint = 0;
      nwaiting = 0;
      pending = 0;
      error = None;
      stop = false;
      closed = false;
      domains = [];
    }
  in
  t.domains <- List.init njobs (fun i -> Domain.spawn (worker t i));
  t

let shutdown t =
  if not t.closed then begin
    (* Drain before stopping: workers keep executing until quiescent.  A
       pending post error must not leak the domains, so re-raise it only
       after the join. *)
    let err =
      match await_idle t with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    t.closed <- true;
    Mutex.lock t.lock;
    t.stop <- true;
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
  max 1 (min cap (Domain.recommended_domain_count () - 1))
