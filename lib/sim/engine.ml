(* Two queue representations back the same engine.  The default mode keeps
   events in a binary heap and dispatches strictly by (time, seq) — the fast
   path every simulation uses.  When a scheduler strategy is installed
   (Tact_check's systematic explorer), events move to a flat list and each
   dispatch becomes a visible choice point: the strategy is shown every
   pending event and picks which fires next.  Firing an event later than its
   scheduled time models scheduling/propagation delay, so the clock advances
   to max(clock, event time) and never runs backwards. *)

module Heap = Tact_util.Heap

type label = { actor : int; tag : string }

type choice = { c_time : float; c_seq : int; c_label : label option }

type scheduler = now:float -> choice array -> int

exception Runaway of int

type entry = {
  e_time : float;
  e_seq : int;
  e_label : label option;
  e_thunk : unit -> unit;
}

type t = {
  queue : (label option * (unit -> unit)) Heap.t;
  mutable pending : entry list;  (* chooser mode only; unordered *)
  mutable chooser : scheduler option;
  mutable clock : float;
  mutable seq : int;
  mutable executed : int;
  mutable last_dispatch : float * int;  (* (time, seq) of the last event fired *)
}

let create () =
  { queue = Heap.create (); pending = []; chooser = None; clock = 0.0;
    seq = 0; executed = 0; last_dispatch = (neg_infinity, 0) }

let now t = t.clock

let at ?label t ~time thunk =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.at: time %g is in the past (now %g)" time t.clock);
  t.seq <- t.seq + 1;
  match t.chooser with
  | None -> Heap.push t.queue ~time ~seq:t.seq (label, thunk)
  | Some _ ->
    t.pending <-
      { e_time = time; e_seq = t.seq; e_label = label; e_thunk = thunk }
      :: t.pending

let schedule ?label t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  at ?label t ~time:(t.clock +. delay) thunk

let every ?label t ~period ?(jitter = fun () -> 0.0) thunk =
  (* Jitter may be negative; clamp the net delay at zero so a draw larger
     than the period cannot reach the negative-delay guard in [schedule]. *)
  let delay () = Float.max 0.0 (period +. jitter ()) in
  let rec tick () = if thunk () then schedule ?label t ~delay:(delay ()) tick in
  schedule ?label t ~delay:(delay ()) tick

let set_scheduler t s =
  (* Migrate queued events between representations so the switch is legal at
     any quiescent point (between run calls / before scheduling workload). *)
  (match (t.chooser, s) with
  | None, Some _ ->
    let rec drain () =
      match Heap.pop t.queue with
      | None -> ()
      | Some (time, seq, (label, thunk)) ->
        t.pending <-
          { e_time = time; e_seq = seq; e_label = label; e_thunk = thunk }
          :: t.pending;
        drain ()
    in
    drain ()
  | Some _, None ->
    List.iter
      (fun e -> Heap.push t.queue ~time:e.e_time ~seq:e.e_seq (e.e_label, e.e_thunk))
      t.pending;
    t.pending <- []
  | None, None | Some _, Some _ -> ());
  t.chooser <- s

let entry_before a b =
  a.e_time < b.e_time || (a.e_time = b.e_time && a.e_seq < b.e_seq)

let sorted_pending t =
  List.sort (fun a b -> if entry_before a b then -1 else 1) t.pending

let to_choice e = { c_time = e.e_time; c_seq = e.e_seq; c_label = e.e_label }

let pending_choices t =
  match t.chooser with
  | Some _ -> Array.of_list (List.map to_choice (sorted_pending t))
  | None ->
    let acc = ref [] in
    Heap.iter
      (fun ~time ~seq (label, _) ->
        acc := { c_time = time; c_seq = seq; c_label = label } :: !acc)
      t.queue;
    let arr = Array.of_list !acc in
    Array.sort
      (fun a b ->
        match Float.compare a.c_time b.c_time with
        | 0 -> Int.compare a.c_seq b.c_seq
        | c -> c)
      arr;
    arr

(* Default mode: strict (time, seq) dispatch out of the heap. *)
let run_heap ~until ~max_events t =
  let continue = ref true in
  while !continue do
    match Heap.peek_time t.queue with
    | None -> continue := false
    | Some time when time > until ->
      (* Leave future events queued; advance the clock to the horizon so that
         staleness measured at the end of a run is well defined. *)
      t.clock <- until;
      continue := false
    | Some _ ->
      (* Runaway guard: raise before dispatch, leaving the offending event
         queued — a caller that catches [Runaway] can resume the run. *)
      if t.executed >= max_events then raise (Runaway t.executed);
      (match Heap.pop t.queue with
      | None -> continue := false
      | Some (time, seq, (_, thunk)) ->
        if Tact_util.Sanitize.enabled () then begin
          (* Dispatch must be totally ordered by (time, insertion seq) — a
             heap defect here would silently reorder protocol steps. *)
          let lt, ls = t.last_dispatch in
          if time < lt || (time = lt && seq <= ls) then
            Tact_util.Sanitize.violation ~ctx:"engine"
              "event (t=%g, seq=%d) dispatched after (t=%g, seq=%d)" time seq
              lt ls;
          t.last_dispatch <- (time, seq)
        end;
        t.clock <- time;
        t.executed <- t.executed + 1;
        thunk ())
  done

(* Chooser mode: every dispatch is a choice point.  The strategy sees all
   pending events within the horizon, sorted by (time, seq) — index 0 is the
   default-order choice — and returns the index to fire.  Firing an event
   whose time is behind the clock models it having been delayed; the clock
   never moves backwards.  The sanitizer's dispatch-order audit is off here:
   relaxing that total order is precisely the point. *)
let run_choosing ~until ~max_events t f =
  let continue = ref true in
  while !continue do
    let ready = List.filter (fun e -> e.e_time <= until) (sorted_pending t) in
    match ready with
    | [] ->
      (match t.pending with
      | [] -> ()
      | _ :: _ -> if until > t.clock then t.clock <- until);
      continue := false
    | _ :: _ ->
      if t.executed >= max_events then raise (Runaway t.executed);
      let arr = Array.of_list ready in
      let idx = f ~now:t.clock (Array.map to_choice arr) in
      if idx < 0 || idx >= Array.length arr then
        invalid_arg
          (Printf.sprintf "Engine.run: scheduler chose %d of %d pending events"
             idx (Array.length arr));
      let chosen = arr.(idx) in
      t.pending <- List.filter (fun e -> e.e_seq <> chosen.e_seq) t.pending;
      t.clock <- Float.max t.clock chosen.e_time;
      t.executed <- t.executed + 1;
      chosen.e_thunk ()
  done

let run ?(until = infinity) ?(max_events = 200_000_000) t =
  match t.chooser with
  | None -> run_heap ~until ~max_events t
  | Some f -> run_choosing ~until ~max_events t f

let events_executed t = t.executed
