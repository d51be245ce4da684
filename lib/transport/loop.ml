(* A real-time event loop: the wall-clock twin of the simulator's
   {!Tact_sim.Engine}.  One timer heap (the engine's {!Tact_util.Heap},
   ordered by (due, scheduling seq)) plus [Unix.select] over registered
   file descriptors — single-threaded by construction, so handlers never
   race (the same execution model the deterministic engine gives the
   protocol code).

   Time is the host's wall clock, the same for every loop: covers and
   write timestamps are compared across processes, so daemons started at
   different moments must agree on what "now" is.  Bounded staleness across
   hosts therefore needs loosely synchronised clocks, as the paper assumes
   (doc/TRANSPORT.md). *)

module Heap = Tact_util.Heap

type fd_watch = {
  mutable want_read : bool;
  mutable want_write : bool;
  mutable on_read : unit -> unit;
  mutable on_write : unit -> unit;
}

type t = {
  timers : (unit -> unit) Heap.t;  (* keyed by (due, seq): FIFO among ties *)
  mutable seq : int;
  watches : (Unix.file_descr, fd_watch) Hashtbl.t;
  mutable stopping : bool;
  mutable wakeups : (unit -> unit) list;
      (* callbacks to run at the top of the next iteration (signal-safe
         hand-off point: a signal handler only flips flags / pushes here) *)
}

let create () =
  {
    timers = Heap.create ();
    seq = 0;
    watches = Hashtbl.create 16;
    stopping = false;
    wakeups = [];
  }

let now _ = Unix.gettimeofday ()

(* [tag] is provenance for the caller's diagnostics; the loop keeps only
   the due time, the tie-break and the thunk. *)
let schedule t ~tag:_ ~delay f =
  t.seq <- t.seq + 1;
  Heap.push t.timers ~time:(now t +. Float.max 0.0 delay) ~seq:t.seq f

let rec every t ~tag ~period f =
  schedule t ~tag ~delay:period (fun () ->
      if (not t.stopping) && f () then every t ~tag ~period f)

let watch t fd =
  match Hashtbl.find_opt t.watches fd with
  | Some w -> w
  | None ->
    let w =
      {
        want_read = false;
        want_write = false;
        on_read = ignore;
        on_write = ignore;
      }
    in
    Hashtbl.replace t.watches fd w;
    w

let on_readable t fd f =
  let w = watch t fd in
  w.want_read <- true;
  w.on_read <- f

let on_writable t fd f =
  let w = watch t fd in
  w.want_write <- true;
  w.on_write <- f

let clear_writable t fd =
  match Hashtbl.find_opt t.watches fd with
  | Some w -> w.want_write <- false
  | None -> ()

let forget t fd = Hashtbl.remove t.watches fd

let defer t f = t.wakeups <- f :: t.wakeups

let stop t = t.stopping <- true
let stopping t = t.stopping

(* One iteration: run due wakeups and timers, then select on the watched
   fds until the next timer (capped so stop requests are noticed promptly).
   Handler exceptions propagate — the caller owns crash policy. *)
let run_once ?(max_wait = 0.25) t =
  let deferred = List.rev t.wakeups in
  t.wakeups <- [];
  List.iter (fun f -> f ()) deferred;
  let rec fire () =
    match Heap.peek_time t.timers with
    | Some due when due <= now t ->
      Option.iter (fun (_, _, f) -> f ()) (Heap.pop t.timers);
      fire ()
    | Some _ | None -> ()
  in
  fire ();
  let timeout =
    match Heap.peek_time t.timers with
    | None -> max_wait
    | Some due -> Float.min max_wait (Float.max 0.0 (due -. now t))
  in
  let reads = ref [] and writes = ref [] in
  (* Order-insensitive walk: select treats its fd lists as sets. *)
  Hashtbl.iter (* lint: allow hashtbl-iter -- set collection for select *)
    (fun fd w ->
      if w.want_read then reads := fd :: !reads;
      if w.want_write then writes := fd :: !writes)
    t.watches;
  if
    !reads = [] && !writes = [] && Heap.is_empty t.timers
    && t.wakeups = []
  then false
  else begin
    let r, w, _ =
      try Unix.select !reads !writes [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        match Hashtbl.find_opt t.watches fd with
        | Some watch when watch.want_read -> watch.on_read ()
        | Some _ | None -> ())
      r;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt t.watches fd with
        | Some watch when watch.want_write -> watch.on_write ()
        | Some _ | None -> ())
      w;
    true
  end

let run t =
  let live = ref true in
  while !live && not t.stopping do
    live := run_once t
  done
