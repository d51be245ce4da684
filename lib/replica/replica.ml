open Tact_util
open Tact_store
open Tact_core
open Tact_protocols

(* The message type lives in {!Wire} (where its byte codec is); re-exported
   here so the protocol code keeps its unqualified constructors. *)
type msg = Wire.msg =
  | Transfer of {
      from : int;
      writes : Write.t list;
      vector : Version_vector.t;  (** sender's full vector at send time *)
      cover : float array;  (** sender's per-origin cover times *)
      csn_start : int;
      csn : Write.id list;
      rate : float;  (** sender's write-rate estimate, for adaptive budgets *)
      kind : [ `Push | `Pull_reply of int | `Gossip ];
    }
  | Snapshot of {
      from : int;
      snap : Wlog.snapshot;
      writes : Write.t list;  (** retained writes past the snapshot *)
      vector : Version_vector.t;
      cover : float array;
      rate : float;
      round : int;  (** 0 when not a pull-round reply *)
    }
  | Pull_req of { from : int; vector : Version_vector.t; csn_known : int; round : int }
  | Ack of { from : int; vector : Version_vector.t; csn_known : int }
  | Batch_frame of string
      (** one {!Tact_store.Batch} frame, actually serialised — sender,
          shard and sync body in a single message (Batched sync mode) *)

type round_state = {
  mutable remaining : int;
  started : float;
  replied : bool array;
      (** per-peer reply dedup: the network may duplicate messages, and a
          round must complete only after [remaining] {e distinct} peers
          answer, not after the same reply arrives twice *)
}

(* Per-conit state: what an access or an own write needs to know about one
   conit, resolved by name once — when an access is submitted or an own
   write is served — and read as fields afterwards.  Created the first time
   this replica meets the conit, so the table grows with the active conits,
   not with the declared population. *)
type cstate = {
  c_name : string;
  c_decl : Conit.t;  (** the declaration, or an unconstrained one *)
  c_bounded : bool;
      (** a finite declared NE bound, absolute or relative: any other
          conit's share is infinite, so its weight never gates a write *)
  c_tally : Wlog.tally;
  mutable c_out : float array;
      (** per peer: |nweight| of own accepted writes on this conit not yet
          confirmed at that peer; [[||]] until the conit first enters the
          budget window *)
}

type pending = {
  p_submit : float;
  p_deps : (cstate * Bounds.t) list;
  p_st : float;  (** the tightest ST bound among [p_deps] *)
  p_require : Version_vector.t option;
      (** serve only once the log covers this vector (session guarantees) *)
  p_on_timeout : (unit -> unit) option;
  p_deadline : float;  (** [infinity] when the client set none *)
  p_kind : pkind;
  mutable p_round : int option;  (** id of an in-flight NE pull round *)
  mutable p_round_done : bool;
  mutable p_needs_round : bool;
      (** a complete pull round is required: NE tighter than the declared
          bound, or staleness too tight for targeted pulls *)
  mutable p_st_tries : int;
  mutable p_done : bool;
      (** served, timed out or abandoned; the queue entry is dead and is
          dropped lazily at the next pump *)
}

and pkind =
  | Pread of (Db.t -> Value.t) * (Value.t -> unit)
  | Pwrite of Op.t * Write.weight list * (Op.outcome -> unit)

(* Filler for the vacated slots of the parked-access deque. *)
let no_pending =
  { p_submit = 0.0; p_deps = []; p_st = infinity; p_require = None;
    p_on_timeout = None; p_deadline = infinity; p_kind = Pread ((fun _ -> Value.Nil), ignore);
    p_round = None; p_round_done = false; p_needs_round = false; p_st_tries = 0;
    p_done = true }

(* A write accepted but not yet returned to its client — because the NE
   budget demands that some peers acknowledge older writes first, or because
   a zero order-error dependency makes the write commit-synchronous: the
   paper defines a write's actual result as its return value when finally
   committed, so a strong write may only return the committed outcome. *)
type unreturned = {
  u_write : Write.t;
  u_outcome : Op.outcome;  (* tentative outcome at acceptance *)
  u_wait_commit : bool;
  (* what the access record needs besides its return time and result *)
  u_obs : Version_vector.t * Write.id list Lazy.t * Write.id list Lazy.t;
  u_submit : float;
  u_serve : float;
  u_deps : (cstate * Bounds.t) list;
  u_over : cstate list;
      (** the bounded conits the write weighs on: the ones that can hold it
          back over a peer's budget *)
  u_k : Op.outcome -> unit;
}

type stats = {
  mutable pushes_budget : int;
  mutable pulls_ne : int;
  mutable pulls_oe : int;
  mutable pulls_st : int;
  mutable gossips : int;
  mutable blocked_accesses : int;
  mutable snapshots_sent : int;
  mutable snapshots_installed : int;
  mutable timeouts : int;
  mutable batches : int;
  mutable wrong_shard_frames : int;
  mutable malformed_frames : int;
}

(* Placeholders for what nothing reads: the vector before an own write when
   no [on_accept] hook wants it, and what an access observed when records
   are off. *)
let no_vector = Version_vector.create 0
let no_observation = (no_vector, lazy [], lazy [])

let zero_stats () =
  { pushes_budget = 0; pulls_ne = 0; pulls_oe = 0; pulls_st = 0; gossips = 0;
    blocked_accesses = 0; snapshots_sent = 0; snapshots_installed = 0;
    timeouts = 0; batches = 0; wrong_shard_frames = 0; malformed_frames = 0 }

let add_stats a b =
  {
    pushes_budget = a.pushes_budget + b.pushes_budget;
    pulls_ne = a.pulls_ne + b.pulls_ne;
    pulls_oe = a.pulls_oe + b.pulls_oe;
    pulls_st = a.pulls_st + b.pulls_st;
    gossips = a.gossips + b.gossips;
    blocked_accesses = a.blocked_accesses + b.blocked_accesses;
    snapshots_sent = a.snapshots_sent + b.snapshots_sent;
    snapshots_installed = a.snapshots_installed + b.snapshots_installed;
    timeouts = a.timeouts + b.timeouts;
    batches = a.batches + b.batches;
    wrong_shard_frames = a.wrong_shard_frames + b.wrong_shard_frames;
    malformed_frames = a.malformed_frames + b.malformed_frames;
  }

type t = {
  rid : int;
  n : int;
  ep : msg Transport.endpoint;
  cfg : Config.t;
  mutation : Mutation.t;  (* planted bug; [Off] outside harness self-tests *)
  wlog : Wlog.t;
  cover : float array;  (** cover.(o): all writes from origin [o] with accept
                            time <= cover.(o) are known here *)
  acked : Version_vector.t array;  (** acked.(j): writes confirmed present at j *)
  acked_csn : int array;
  conits : (string, cstate) Hashtbl.t;
  budget : (int * (cstate * float) list) Deque.t;
      (** the budget window: (own seq, bounded conits with |nweight|) of
          every own write carrying such weight that some peer has not yet
          confirmed, oldest first *)
  mutable budget_base : int;  (** absolute index of the window's front *)
  budget_pos : int array;
      (** per peer: absolute index of the first window entry whose weight is
          still counted in its conits' [c_out] for that peer *)
  csn : Csn_buffer.t;
  mutable csn_committed : int;
  mutable in_csn : (Write.id, unit) Hashtbl.t;  (** primary only *)
  mutable rate_ewma : float;
  mutable last_rate_update : float;
  rates : float array;
  mutable pending : pending Deque.t;  (** oldest first *)
  mutable npending : int;  (** live (not [p_done]) entries in [pending] *)
  mutable sweep_at : float;
      (** the deadline the sweep is armed for ([infinity]: none); no live
          parked access has an earlier deadline *)
  mutable rescan : bool;
      (** something a parked access's admission reads (round flags, the log
          vector, the tallies, the covers) may have changed since the last
          scan of [pending]; clear only after a scan that served nothing *)
  return_queue : unreturned Queue.t;  (** oldest first *)
  rounds : (int, round_state) Hashtbl.t;
  mutable round_ctr : int;
  mutable up : bool;
  mutable closed : bool;  (* transport torn down; sends are inert *)
  mutable crashes : int;
  on_accept : (Write.t -> Version_vector.t -> unit) option;
  mutable records : Access.t list;
  mutable retry_running : bool;
  frame : Codec.Frame.t;
      (* reusable encode arena for batched sync: cleared and refilled once
         per outgoing frame, so steady state allocates nothing *)
  dirty : bool array;  (* per peer: a coalesced batch flush is scheduled *)
  st : stats;  (* this replica's counters; {!stats} hands out copies *)
}

let now t = t.ep.Transport.ep_now ()

let create ~id ~n ~endpoint ~config ?(mutation = Mutation.Off) ?on_accept () =
  let t =
    {
      rid = id;
      n;
      ep = endpoint;
      cfg = config;
      mutation;
      wlog =
        Wlog.create_bounded ~procs:config.Config.procs
          ~bounded:config.Config.bounded_log ~replicas:n
          ~initial:config.Config.initial_db;
      cover = Array.make n 0.0;
      acked = Array.init n (fun _ -> Version_vector.create n);
      acked_csn = Array.make n 0;
      conits = Hashtbl.create 8;
      budget = Deque.create ~filler:(0, []) ();
      budget_base = 0;
      budget_pos = Array.make n 0;
      csn = Csn_buffer.create ();
      csn_committed = 0;
      in_csn = Hashtbl.create 64;
      rate_ewma = 0.0;
      last_rate_update = 0.0;
      rates = Array.make n 0.0;
      pending = Deque.create ~filler:no_pending ();
      npending = 0;
      sweep_at = infinity;
      rescan = false;
      return_queue = Queue.create ();
      rounds = Hashtbl.create 8;
      round_ctr = 0;
      up = true;
      closed = false;
      crashes = 0;
      on_accept;
      records = [];
      retry_running = false;
      frame = Codec.Frame.create ();
      dirty = Array.make n false;
      st = zero_stats ();
    }
  in
  (* The rate clock starts at creation: 0 in the simulator, the wall clock
     in a daemon. *)
  t.last_rate_update <- now t;
  t

let schedule t ~tag ~delay f = t.ep.Transport.ep_schedule ~tag ~delay f
let every t ~tag ~period f = t.ep.Transport.ep_every ~tag ~period f

(* Event emission.  Every site tests [observed] before it builds the event,
   so an unobserved run pays one branch and allocates nothing. *)
let observed t = Option.is_some t.ep.Transport.ep_emit

let emit t kind =
  match t.ep.Transport.ep_emit with
  | Some sink -> sink { Event.time = now t; node = t.rid; kind }
  | None -> ()

let id t = t.rid
let log t = t.wlog
let db t = Wlog.db t.wlog
let records t = t.records
let pending_count t = t.npending

(* The conit's state, created on first sight.  [Hashtbl.find] rather than
   [find_opt]: the hit path then allocates nothing. *)
let cstate t name =
  match Hashtbl.find t.conits name with
  | c -> c
  | exception Not_found ->
    let d = Config.conit t.cfg name in
    let c =
      { c_name = name; c_decl = d;
        c_bounded = d.Conit.ne_bound < infinity || d.Conit.ne_rel_bound < infinity;
        c_tally = Wlog.tally t.wlog name; c_out = [||] }
    in
    Hashtbl.add t.conits name c;
    c

(* Every conit that has entered the budget window holds one outstanding
   entry per peer. *)
let bookkeeping_entries t =
  (* lint: allow hashtbl-fold — commutative count *)
  Hashtbl.fold
    (fun _ c acc -> if Array.length c.c_out = 0 then acc else acc + t.n - 1)
    t.conits 0

(* Replica-level invariant audit (TACT_SANITIZE checking mode): execution
   state that sits above the write log — cover times, parked-access
   accounting, commit-sequence and budget pointers — plus the full log audit,
   reported with this replica's id. *)
let sanity_check t =
  if Sanitize.enabled () then begin
    let ctx = Printf.sprintf "replica %d at t=%g" t.rid (now t) in
    let bad = ref [] in
    let addf fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
    let nw = now t in
    Array.iteri
      (fun o c ->
        if c > nw +. 1e-9 then
          addf "cover.(%d) = %g is in the future (now %g)" o c nw)
      t.cover;
    let live = ref 0 in
    Deque.iter
      (fun p ->
        if not p.p_done then begin
          incr live;
          if p.p_deadline < t.sweep_at then
            addf "a parked access's deadline %g precedes the sweep at %g"
              p.p_deadline t.sweep_at
        end)
      t.pending;
    if !live <> t.npending then
      addf "npending = %d but the queue holds %d live entries" t.npending !live;
    (* Note: csn_committed may legitimately lead the known csn prefix — a
       snapshot install folds in remote commits without their csn slices. *)
    if t.csn_committed < 0 then addf "csn_committed = %d negative" t.csn_committed;
    (* Budget window: every peer's cursor lies inside the window, and the
       weight recounted from it onward is exactly that peer's outstanding
       weight, conit by conit (in name order, so mismatches are reported
       deterministically). *)
    let states =
      (* lint: allow hashtbl-fold — sorted by name before use *)
      Hashtbl.fold (fun _ c acc -> c :: acc) t.conits []
      |> List.sort (fun a b -> String.compare a.c_name b.c_name)
    in
    let top = t.budget_base + Deque.length t.budget in
    for j = 0 to t.n - 1 do
      let pos = t.budget_pos.(j) in
      if j = t.rid then ()
      else if pos < t.budget_base || pos > top then
        addf "budget_pos.(%d) = %d is outside the window [%d, %d]" j pos
          t.budget_base top
      else begin
        let add acc (c, w) =
          let cur = Option.value ~default:0.0 (List.assoc_opt c.c_name acc) in
          (c.c_name, cur +. w) :: List.remove_assoc c.c_name acc
        in
        let recount = ref [] in
        for k = pos - t.budget_base to Deque.length t.budget - 1 do
          recount := List.fold_left add !recount (snd (Deque.get t.budget k))
        done;
        List.iter
          (fun c ->
            let want = Option.value ~default:0.0 (List.assoc_opt c.c_name !recount) in
            let got = if Array.length c.c_out = 0 then 0.0 else c.c_out.(j) in
            if Float.abs (want -. got) > 1e-6 *. Float.max 1.0 (Float.abs want)
            then
              addf "outstanding.(%d) for %s is %g but its window recounts %g" j
                c.c_name got want)
          states
      end
    done;
    Sanitize.report ~ctx (List.rev !bad);
    Wlog.sanitize ~ctx t.wlog
  end

let stats t = add_stats t.st (zero_stats ())

(* ------------------------------------------------------------------ *)
(* Outgoing syncs                                                      *)

(* A rejected incoming message: counted, reported, never applied. *)
let reject t reason =
  t.st.malformed_frames <- t.st.malformed_frames + 1;
  if observed t then emit t (Event.Malformed (reason ()))

(* A decoded message must have the shape of this [n]-replica system before
   any of it is applied: each vector and cover names every replica once,
   each write and CSN entry names a replica, the CSN slice starts at a real
   index and agrees with the known order, and the rate and cover are
   finite.  The checks raise [Misshapen] with the first field that does not
   fit, so a well-shaped message costs no allocation. *)
exception Misshapen of string

let check_length t what len =
  if len <> t.n then
    raise
      (Misshapen (Printf.sprintf "%s has length %d on a %d-replica system" what len t.n))

let check_origin t what (id : Write.id) =
  if id.origin < 0 || id.origin >= t.n then
    raise (Misshapen (Printf.sprintf "%s %s names no replica" what (Write.id_to_string id)))

let rec check_writes t = function
  | [] -> ()
  | (w : Write.t) :: rest ->
    check_origin t "write" w.id;
    check_writes t rest

let rec check_csn t = function
  | [] -> ()
  | id :: rest ->
    check_origin t "CSN entry" id;
    check_csn t rest

let check_sync t ~vector ~cover ~snap ~writes ~csn_start ~csn ~rate =
  check_length t "vector" (Version_vector.size vector);
  check_length t "cover" (Array.length cover);
  for j = 0 to Array.length cover - 1 do
    if not (Float.is_finite cover.(j)) then
      raise (Misshapen (Printf.sprintf "cover entry %d is %g" j cover.(j)))
  done;
  if not (Float.is_finite rate) then raise (Misshapen (Printf.sprintf "rate is %g" rate));
  (match snap with
  | Some (s : Wlog.snapshot) -> check_length t "snapshot vector" (Version_vector.size s.snap_vector)
  | None -> ());
  check_writes t writes;
  check_csn t csn;
  if not (Csn_buffer.agrees t.csn ~start:csn_start csn) then
    raise
      (Misshapen (Printf.sprintf "CSN slice at %d does not fit the known order" csn_start))

let check_msg t = function
  | Transfer { writes; vector; cover; csn_start; csn; rate; _ } ->
    check_sync t ~vector ~cover ~snap:None ~writes ~csn_start ~csn ~rate
  | Snapshot { snap; writes; vector; cover; rate; _ } ->
    check_sync t ~vector ~cover ~snap:(Some snap) ~writes ~csn_start:0 ~csn:[] ~rate
  | Pull_req { vector; _ } | Ack { vector; _ } ->
    check_length t "vector" (Version_vector.size vector)
  | Batch_frame _ -> () (* checked once decoded *)

let check_batch t (b : Batch.t) =
  let snap, writes =
    match b.payload with Batch.Delta ws -> (None, ws) | Batch.Full (s, ws) -> (Some s, ws)
  in
  check_sync t ~vector:b.vector ~cover:b.cover ~snap ~writes ~csn_start:b.csn_start
    ~csn:b.csn ~rate:b.rate

(* A crashed replica neither processes nor emits messages: its network
   activity looks exactly like loss to its peers.  The write log itself is
   durable (write-ahead semantics), so recovery resumes from the full log;
   only execution state (parked accesses, open pull rounds) is volatile. *)
let rec send t ~dst msg =
  if t.up && not t.closed then
    (* [Ok] means accepted-or-parked, not delivered; an [Error] (peer down,
       queue bounded) is deliberately not a protocol event — delivery
       guarantees stay with the protocol's own ack/retry machinery, which
       covers a dropped send exactly like a lost message. *)
    match t.ep.Transport.ep_send ~dst msg with Ok () | Error _ -> ()

and my_cover t =
  let c = Array.copy t.cover in
  c.(t.rid) <- now t;
  c

(* Every outgoing sync — push, gossip or pull reply — for a peer believed to
   hold [peer_vector] and the CSN prefix below [csn_start]: a delta when the
   log can still serve the peer, a snapshot fallback when truncation has
   passed it ({!Batch.plan}).  Per_write mode sends the plan as a [Transfer]
   or [Snapshot] value; Batched mode encodes it as one {!Batch} frame through
   the reusable arena (exact size preallocated, so steady state is one
   amortised-zero arena growth per frame). *)
and sync_msg t ~peer_vector ~csn_start ~kind =
  Batch.plan ~log:t.wlog ~peer_vector (fun payload ->
      let vector = Version_vector.copy (Wlog.vector t.wlog) in
      let cover = my_cover t in
      (match payload with
      | Batch.Full _ -> t.st.snapshots_sent <- t.st.snapshots_sent + 1
      | Batch.Delta _ -> ());
      match (t.cfg.Config.sync, payload) with
      | Config.Per_write, Batch.Delta writes ->
        Transfer
          { from = t.rid; writes; vector; cover; csn_start;
            csn = Csn_buffer.slice_from t.csn csn_start; rate = t.rate_ewma;
            kind = Wire.transfer_kind kind }
      | Config.Per_write, Batch.Full (snap, writes) ->
        let round =
          match kind with Batch.Pull_reply r -> r | Batch.Push | Batch.Gossip -> 0
        in
        Snapshot
          { from = t.rid; snap; writes; vector; cover; rate = t.rate_ewma; round }
      | Config.Batched, _ ->
        Codec.Frame.clear t.frame;
        Batch.encode t.frame
          { Batch.from = t.rid; shard = t.cfg.Config.shard_id; kind; vector;
            cover; csn_start; csn = Csn_buffer.slice_from t.csn csn_start;
            rate = t.rate_ewma; payload };
        t.st.batches <- t.st.batches + 1;
        Batch_frame (Codec.Frame.contents t.frame))

and push_now t dst =
  send t ~dst
    (sync_msg t ~peer_vector:t.acked.(dst) ~csn_start:t.acked_csn.(dst)
       ~kind:Batch.Push)

(* Coalescing: instead of sending immediately, mark the peer dirty and flush
   one batch per peer per flush window.  Every sync trigger that fires inside
   the window rides the same frame — this is where the per-write message
   flood collapses. *)
and flush_batch t dst =
  if t.dirty.(dst) then begin
    t.dirty.(dst) <- false;
    if t.up then push_now t dst
  end

and mark_dirty t dst =
  if not t.dirty.(dst) then begin
    t.dirty.(dst) <- true;
    schedule t ~tag:"batch" ~delay:t.cfg.Config.batch_flush (fun () ->
        flush_batch t dst)
  end

(* Sync-mode dispatch for every push-shaped trigger (budget pushes, retries,
   gossip): immediate sync, or a coalesced batch mark. *)
and push_to t ~dst =
  match t.cfg.Config.sync with
  | Config.Per_write -> push_now t dst
  | Config.Batched -> mark_dirty t dst

(* ------------------------------------------------------------------ *)
(* Budget bookkeeping                                                  *)

(* The absolute share of a receiver's NE budget this replica may consume for
   a conit; relative bounds are converted with a conservative local estimate
   of the conit's value. *)
and share_for t ~receiver c =
  let d = c.c_decl in
  let abs_bound =
    if Float.equal d.Conit.ne_rel_bound infinity then d.Conit.ne_bound
    else begin
      (* Conservative value estimate: the committed value minus everything
         still in flight could be lower, but for the monotone workloads the
         relative bound targets (counters, seat pools) the local full view is
         the estimate the TACT prototype uses. *)
      let v = Float.abs (d.Conit.initial_value +. Wlog.tally_value c.c_tally) in
      Float.min d.Conit.ne_bound (d.Conit.ne_rel_bound *. v)
    end
  in
  if Float.equal abs_bound infinity then infinity
  else
    Budget.share t.cfg.Config.budget_policy ~bound:abs_bound ~n:t.n ~self:t.rid
      ~receiver ~rates:t.rates

(* The budget window.  A write enters it only when it weighs on some conit
   with a finite declared NE bound — any other conit's share is infinite, so
   its weight can never hold a write back — and leaves it once every peer has
   confirmed it.  The window therefore holds what is in flight, not the
   replica's history.  [charges] are the write's bounded conits with the
   absolute weight it puts on each. *)
and add_outstanding t ~seq charges =
  match charges with
  | [] -> ()
  | _ ->
    let k = t.budget_base + Deque.length t.budget in
    Deque.push_back t.budget (seq, charges);
    List.iter
      (fun (c, _) -> if Array.length c.c_out = 0 then c.c_out <- Array.make t.n 0.0)
      charges;
    for j = 0 to t.n - 1 do
      if j <> t.rid then
        if Version_vector.covers t.acked.(j) ~origin:t.rid ~seq then
          (* Already confirmed (the write round-tripped before acceptance —
             possible when it was pushed ahead of its return). *)
          (if t.budget_pos.(j) = k then t.budget_pos.(j) <- k + 1)
        else List.iter (fun (c, w) -> c.c_out.(j) <- c.c_out.(j) +. w) charges
    done;
    trim_budget t

(* Drop the front entries every peer has confirmed. *)
and trim_budget t =
  let low = ref (t.budget_base + Deque.length t.budget) in
  for j = 0 to t.n - 1 do
    if j <> t.rid && t.budget_pos.(j) < !low then low := t.budget_pos.(j)
  done;
  if !low > t.budget_base then begin
    Deque.drop_front t.budget (!low - t.budget_base);
    t.budget_base <- !low
  end

and release_outstanding t ~peer =
  (* Advance the peer's cursor over the entries it now confirms, releasing
     their weight. *)
  if peer <> t.rid then begin
    let confirmed = Version_vector.get t.acked.(peer) t.rid in
    let start = t.budget_pos.(peer) in
    let top = t.budget_base + Deque.length t.budget in
    t.budget_pos.(peer) <- release_from t ~peer ~confirmed ~top start;
    if start = t.budget_base && t.budget_pos.(peer) > start then trim_budget t
  end

(* Does this replica exceed peer [j]'s budget for any of [over]? *)
and over_for t j = function
  | [] -> false
  | c :: rest -> c.c_out.(j) > share_for t ~receiver:j c || over_for t j rest

(* Release the window entries from [pos] on that [peer] confirms; returns
   the first entry it does not. *)
and release_from t ~peer ~confirmed ~top pos =
  if pos = top then pos
  else
    let seq, charges = Deque.get t.budget (pos - t.budget_base) in
    if seq > confirmed then pos
    else begin
      release_charges peer charges;
      release_from t ~peer ~confirmed ~top (pos + 1)
    end

and release_charges peer = function
  | [] -> ()
  | (c, w) :: rest ->
    c.c_out.(peer) <- c.c_out.(peer) -. w;
    release_charges peer rest

(* Peers whose budget this replica currently exceeds for any of a write's
   bounded conits ([u_over]; empty = the write may return). *)
and over_budget_peers t over =
  match over with
  | [] -> []
  | _ ->
    let result = ref [] in
    for j = t.n - 1 downto 0 do
      if j <> t.rid && over_for t j over then result := j :: !result
    done;
    !result

(* [over_budget_peers t over = []], without building the list. *)
and within_budget t over =
  match over with
  | [] -> true
  | _ ->
    let j = ref 0 in
    while !j < t.n && (!j = t.rid || not (over_for t !j over)) do
      incr j
    done;
    !j = t.n

(* ------------------------------------------------------------------ *)
(* Commitment                                                          *)

and commit_progress t =
  (match t.cfg.Config.commit_scheme with
  | Config.Stability ->
    (* [cover.(rid)] is read nowhere else, so the own entry is refreshed in
       place rather than on a copy. *)
    t.cover.(t.rid) <- now t;
    let n = Wlog.commit_stable t.wlog ~cover:t.cover in
    if n > 0 && observed t then emit t (Event.Commit { writes = n; csn = false })
  | Config.Primary _ -> commit_progress_primary t);
  match t.cfg.Config.truncate_keep with
  | Some keep -> ignore (Wlog.truncate t.wlog ~keep)
  | None -> ()

and commit_progress_primary t =
  match t.cfg.Config.commit_scheme with
  | Config.Stability -> assert false
  | Config.Primary p ->
    if t.rid = p then primary_assign t;
    (* Commit the known-csn prefix whose writes we hold. *)
    let rec advance acc =
      if
        t.csn_committed + List.length acc < Csn_buffer.known t.csn
        && Wlog.known t.wlog (Csn_buffer.get t.csn (t.csn_committed + List.length acc))
      then advance (Csn_buffer.get t.csn (t.csn_committed + List.length acc) :: acc)
      else List.rev acc
    in
    let ids = advance [] in
    if ids <> [] then begin
      let n = Wlog.commit_ids t.wlog ids in
      t.csn_committed <- t.csn_committed + List.length ids;
      if n > 0 && observed t then emit t (Event.Commit { writes = n; csn = true })
    end

(* Primary: assign commit sequence numbers to every known-but-unassigned
   write, in local arrival (timestamp) order. *)
and primary_assign t =
  Wlog.iter_tentative t.wlog (fun (w : Write.t) ->
      if not (Hashtbl.mem t.in_csn w.id) then begin
        Hashtbl.replace t.in_csn w.id ();
        Csn_buffer.append t.csn w.id
      end)

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

and staleness_estimate t =
  if t.n = 1 then 0.0
  else begin
    let nw = now t in
    let worst = ref 0.0 in
    for j = 0 to t.n - 1 do
      if j <> t.rid then worst := Float.max !worst (nw -. t.cover.(j))
    done;
    !worst
  end

(* Does a dep require a one-off pull round (NE tighter than the declared,
   proactively maintained bound)? *)
and needs_ne_round (c, (b : Bounds.t)) =
  b.ne < c.c_decl.Conit.ne_bound || b.ne_rel < c.c_decl.Conit.ne_rel_bound

(* Can the access be served now, given the staleness estimate [est]?  The
   tests run cheapest and most selective first: an unfinished NE round,
   then the session vector, then OE per conit, then ST. *)
and deps_satisfied t p ~est =
  ((not p.p_needs_round) || p.p_round_done)
  && (match p.p_require with
     | None -> true
     | Some v -> Version_vector.dominates (Wlog.vector t.wlog) v)
  && oe_within t p.p_deps
  (* A pull round completed after submission implies that every write
     returned before submission has been observed — hence both numerical
     error and staleness (measured at submission, per the model) are zero. *)
  && (p.p_round_done || match p.p_deps with [] -> true | _ -> est <= p.p_st)

(* Every dep's conit holds no more tentative order weight than its OE
   bound allows (plus the checker's planted off-by-[slack], 0 otherwise). *)
and oe_within t = function
  | [] -> true
  | (c, (b : Bounds.t)) :: rest ->
    let slack = match t.mutation with Mutation.Oe_slack s -> s | _ -> 0.0 in
    Wlog.tally_tent_ow c.c_tally <= b.oe +. slack && oe_within t rest

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)

(* The observed prefix of an access is its origin's history when the access
   is served but before the access itself applies — capture it first, then
   finalise with times and result.  The committed history, including the
   part truncation dropped, is captured as an O(1) cursor into the log's
   append-only commit journal and only expanded if a consumer forces
   [observed_local]; the tentative ids are captured as the log's tentative
   view, O(writes appended since the previous capture) amortised, with the
   suffix itself shared across consecutive records rather than copied. *)
and capture_observation t =
  if not t.cfg.Config.record_accesses then
    (* Records are discarded (see the guards at the record sites), so skip
       the vector copy, tentative view and journal cursor — the cursor is
       unavailable anyway when the journal is off (bounded_log). *)
    no_observation
  else begin
    let vector = Version_vector.copy (Wlog.vector t.wlog) in
    let tentative = Wlog.tentative_view t.wlog in
    let hi = Wlog.commit_cursor t.wlog in
    let wlog = t.wlog in
    let local = lazy (Wlog.commit_slice wlog ~hi @ Lazy.force tentative) in
    (vector, tentative, local)
  end

and access_record t ~kind ~obs:(vector, tentative, local) ~submit ~serve
    ~return_t ~deps ~result =
  {
    Access.kind;
    replica = t.rid;
    submit_time = submit;
    serve_time = serve;
    return_time = return_t;
    deps = List.map (fun (c, bound) -> { Access.conit = c.c_name; bound }) deps;
    observed_vector = vector;
    observed_tentative = tentative;
    observed_local = local;
    observed_result = result;
  }

and serve_read t p f k =
  let obs = capture_observation t in
  let result = f (Wlog.db t.wlog) in
  let nw = now t in
  if nw > p.p_submit && observed t then
    emit t (Event.Served { wait = nw -. p.p_submit });
  if t.cfg.Config.record_accesses then
    t.records <-
      access_record t ~kind:Access.Read ~obs ~submit:p.p_submit ~serve:nw
        ~return_t:nw ~deps:p.p_deps ~result
      :: t.records;
  k result

and serve_write t p op affects k =
  let seq = Version_vector.get (Wlog.vector t.wlog) t.rid + 1 in
  let w =
    Write.make ~id:{ origin = t.rid; seq } ~accept_time:(now t) ~op ~affects
  in
  (* The write resolves its conits once, for the budget window and for its
     unreturned record. *)
  let charges =
    List.filter_map
      (fun { Write.conit; nweight; _ } ->
        let c = cstate t conit in
        if c.c_bounded then Some (c, Float.abs nweight) else None)
      affects
  in
  let over =
    match charges with
    | [] -> []
    | _ -> List.filter_map (fun (c, w) -> if Float.equal w 0.0 then None else Some c) charges
  in
  let obs = capture_observation t in
  let pre_vector =
    match t.on_accept with
    | Some _ -> Version_vector.copy (Wlog.vector t.wlog)
    | None -> no_vector
  in
  let outcome = Wlog.accept t.wlog w in
  if observed t then emit t (Event.Accept w);
  update_rate t;
  add_outstanding t ~seq charges;
  (match t.on_accept with Some f -> f w pre_vector | None -> ());
  (* Commitment may already be possible from local knowledge (the primary
     commits its own writes; a single-replica system is trivially covered). *)
  commit_progress t;
  let serve = now t in
  (* A zero order-error dependency makes the write commit-synchronous. *)
  let wait_commit =
    List.exists (fun (_, (b : Bounds.t)) -> Float.equal b.oe 0.0) p.p_deps
    && Wlog.final_outcome t.wlog w.id = None
  in
  let u =
    { u_write = w; u_outcome = outcome; u_wait_commit = wait_commit;
      u_obs = obs; u_submit = p.p_submit; u_serve = serve; u_deps = p.p_deps;
      u_over = over; u_k = k }
  in
  let over = over_budget_peers t over in
  if over = [] && not wait_commit then begin
    record_write t u ~return_t:serve outcome;
    k outcome
  end
  else begin
    (* Push to the peers whose budget we exceed and return once acks bring us
       back inside every share (and, for commit-synchronous writes, once the
       write commits — driven by pulling covers from every peer). *)
    List.iter
      (fun j ->
        t.st.pushes_budget <- t.st.pushes_budget + 1;
        push_to t ~dst:j)
      over;
    if wait_commit then pull_all t ~round:0;
    Queue.push u t.return_queue;
    ensure_retry t
  end

and record_write t u ~return_t outcome =
  if t.cfg.Config.record_accesses then
    t.records <-
      access_record t ~kind:(Access.Write_access u.u_write.id) ~obs:u.u_obs
        ~submit:u.u_submit ~serve:u.u_serve ~return_t ~deps:u.u_deps
        ~result:(Op.result outcome)
      :: t.records

and update_rate t =
  (* EWMA of the local write rate (writes/s), for adaptive budget splits. *)
  let nw = now t in
  let dt = nw -. t.last_rate_update in
  if dt > 0.0 then begin
    let inst = 1.0 /. dt in
    let alpha = Float.min 1.0 (dt /. 10.0) in
    t.rate_ewma <- ((1.0 -. alpha) *. t.rate_ewma) +. (alpha *. inst);
    t.last_rate_update <- nw
  end
  else t.rate_ewma <- t.rate_ewma +. 0.1;
  t.rates.(t.rid) <- t.rate_ewma

(* ------------------------------------------------------------------ *)
(* Synchronisation triggers for a parked access                        *)

and fresh_round t =
  t.round_ctr <- t.round_ctr + 1;
  let r = t.round_ctr in
  Hashtbl.replace t.rounds r
    { remaining = t.n - 1; started = now t; replied = Array.make t.n false };
  r

(* A peer answered pull round [round] (via Snapshot or Transfer).  Count each
   peer at most once — duplicated replies must not complete a round early. *)
and round_reply t ~round ~from =
  if round > 0 then
    match Hashtbl.find_opt t.rounds round with
    | Some st ->
      if not st.replied.(from) then begin
        st.replied.(from) <- true;
        st.remaining <- st.remaining - 1;
        if st.remaining <= 0 then begin
          Hashtbl.remove t.rounds round;
          Deque.iter
            (fun p -> if p.p_round = Some round then p.p_round_done <- true)
            t.pending
        end
      end
    | None -> ()

and pull_msg t ~round =
  Pull_req
    {
      from = t.rid;
      vector = Version_vector.copy (Wlog.vector t.wlog);
      csn_known = Csn_buffer.known t.csn;
      round;
    }

and send_pull t ~dst ~round = send t ~dst (pull_msg t ~round)

(* One message serves every peer: messages are values no receiver mutates,
   and nothing changes the vector or the CSN prefix between the sends. *)
and pull_all t ~round =
  if t.n > 1 then begin
    let msg = pull_msg t ~round in
    for j = 0 to t.n - 1 do
      if j <> t.rid then send t ~dst:j msg
    done
  end

and trigger_syncs t p =
  (* Session-guarantee vector requirement: pull from the origins we lag. *)
  (match p.p_require with
  | Some v when not (Version_vector.dominates (Wlog.vector t.wlog) v) ->
    for j = 0 to t.n - 1 do
      if
        j <> t.rid
        && Version_vector.get (Wlog.vector t.wlog) j < Version_vector.get v j
      then send_pull t ~dst:j ~round:0
    done
  | Some _ | None -> ());
  (* ST: pull from peers whose cover is too old; if targeted pulls have
     already failed to get under the bound (it may be tighter than the
     network's round-trip floor), escalate to a full round. *)
  let st_bound = p.p_st in
  if (not p.p_round_done) && st_bound < infinity && staleness_estimate t > st_bound
  then begin
    p.p_st_tries <- p.p_st_tries + 1;
    if p.p_st_tries >= 2 then p.p_needs_round <- true
    else
      for j = 0 to t.n - 1 do
        if j <> t.rid && now t -. t.cover.(j) > st_bound then begin
          t.st.pulls_st <- t.st.pulls_st + 1;
          send_pull t ~dst:j ~round:0
        end
      done
  end;
  (* NE: a tighter-than-declared bound needs one complete pull round. *)
  if p.p_needs_round && not p.p_round_done then begin
    (* Drop rounds that have outlived the retry period (lost to partitions)
       so the retry loop can start a fresh one. *)
    (match p.p_round with
    | Some r -> (
      match Hashtbl.find_opt t.rounds r with
      | Some st when now t -. st.started > 2.0 *. t.cfg.Config.retry_period ->
        Hashtbl.remove t.rounds r
      | Some _ | None -> ())
    | None -> ());
    match p.p_round with
    | Some r when Hashtbl.mem t.rounds r -> () (* still in flight *)
    | Some _ | None ->
      let r = fresh_round t in
      p.p_round <- Some r;
      t.st.pulls_ne <- t.st.pulls_ne + 1;
      if t.n = 1 then p.p_round_done <- true else pull_all t ~round:r
  end;
  (* OE: drive commitment. *)
  let oe_unmet =
    List.exists
      (fun (c, (b : Bounds.t)) -> Wlog.tally_tent_ow c.c_tally > b.oe)
      p.p_deps
  in
  if oe_unmet then begin
    t.st.pulls_oe <- t.st.pulls_oe + 1;
    match t.cfg.Config.commit_scheme with
    | Config.Stability -> pull_all t ~round:0
    | Config.Primary prim ->
      if t.rid = prim then commit_progress t
      else begin
        push_to t ~dst:prim;
        send_pull t ~dst:prim ~round:0
      end
  end

(* ------------------------------------------------------------------ *)
(* The pump: re-evaluate parked work after any state change            *)

and pump t =
  (* Parked accesses are rescanned only when something their admission
     reads may have changed ([rescan]): a [Pull_req] or [Ack] moves only the
     acks and the budget, and staleness only grows while nothing arrives.
     Nothing parked, nothing to rebuild. *)
  if Deque.is_empty t.pending then t.rescan <- false
  else if t.rescan then scan t
  else if Sanitize.enabled () then begin
    let est = staleness_estimate t in
    Deque.iter
      (fun p ->
        if (not p.p_done) && deps_satisfied t p ~est then
          Sanitize.violation
            ~ctx:(Printf.sprintf "replica %d at t=%g" t.rid (now t))
            "pump skipped its scan but a parked access is servable")
      t.pending
  end;
  (* Return queue: FIFO, release writes whose budget cleared (and, for
     commit-synchronous ones, that have committed).  The drain closure is
     built only when something waits. *)
  if not (Queue.is_empty t.return_queue) then begin
    let rec drain () =
      if not (Queue.is_empty t.return_queue) then begin
        let u = Queue.peek t.return_queue in
        if within_budget t u.u_over then begin
          let final = Wlog.final_outcome t.wlog u.u_write.id in
          match (u.u_wait_commit, final) with
          | true, None -> ()
          | false, _ | true, Some _ ->
            let outcome =
              match (u.u_wait_commit, final) with
              | true, Some f -> f
              | _ -> u.u_outcome
            in
            ignore (Queue.pop t.return_queue);
            record_write t u ~return_t:(now t) outcome;
            u.u_k outcome;
            drain ()
        end
      end
    in
    drain ()
  end

(* Parked accesses (any order — self-determination keeps them independent).
   Serving an access runs its continuation, which may submit — and park —
   further accesses; the pass works over the parked deque detached from
   [pending], compacting the survivors in place, and appends what parked
   meanwhile.  Dead entries ([p_done]: timed out or abandoned) are dropped
   here.  Up to the first dead or servable entry nothing changes, so a pass
   that finds none stops there, having moved and allocated nothing.  A
   served access leaves [rescan] set: what it changed (under the primary
   scheme a write may commit on the spot) can unblock an entry this pass
   already kept. *)
and scan t =
  t.rescan <- false;
  (* One staleness reading serves the whole pass. *)
  let est = staleness_estimate t in
  let parked = t.pending in
  let n = Deque.length parked in
  let first = ref 0 in
  while
    !first < n
    &&
    let p = Deque.get parked !first in
    (not p.p_done) && not (deps_satisfied t p ~est)
  do
    incr first
  done;
  if !first < n then begin
    t.pending <- Deque.create ~filler:no_pending ();
    let kept = ref !first in
    for i = !first to n - 1 do
      let p = Deque.get parked i in
      if p.p_done then ()
      else if deps_satisfied t p ~est then begin
        p.p_done <- true;
        t.npending <- t.npending - 1;
        (match p.p_kind with
        | Pread (f, k) -> serve_read t p f k
        | Pwrite (op, affects, k) -> serve_write t p op affects k);
        t.rescan <- true
      end
      else begin
        Deque.set parked !kept p;
        incr kept
      end
    done;
    while Deque.length parked > !kept do
      ignore (Deque.pop_back parked)
    done;
    (* Entries parked during serving come after the survivors, preserving
       the oldest-first order. *)
    Deque.iter (Deque.push_back parked) t.pending;
    t.pending <- parked
  end

and ensure_retry t =
  if not t.retry_running then begin
    t.retry_running <- true;
    let rec tick () =
      if t.npending = 0 && Queue.is_empty t.return_queue then
        t.retry_running <- false
      else if not t.up then
        (* Stay armed; resume after recovery. *)
        schedule t ~tag:"retry" ~delay:t.cfg.Config.retry_period tick
      else begin
        t.rescan <- true;
        commit_progress t;
        Deque.iter (fun p -> if not p.p_done then trigger_syncs t p) t.pending;
        (* Re-sync for stalled returns (covers loss under partitions). *)
        Queue.iter
          (fun u ->
            List.iter
              (fun j -> push_to t ~dst:j)
              (over_budget_peers t u.u_over);
            if u.u_wait_commit && Wlog.final_outcome t.wlog u.u_write.id = None
            then pull_all t ~round:0)
          t.return_queue;
        pump t;
        schedule t ~tag:"retry" ~delay:t.cfg.Config.retry_period tick
      end
    in
    schedule t ~tag:"retry" ~delay:t.cfg.Config.retry_period tick
  end

(* ------------------------------------------------------------------ *)
(* Message processing                                                  *)

and note_peer_vector t ~peer vector =
  Version_vector.merge_into t.acked.(peer) vector;
  release_outstanding t ~peer

(* Every incoming sync — a [Transfer], a [Snapshot] or a decoded Batch
   frame — applies here.  Everything deduplicates on re-application — the
   write log drops known ids, CSN offers are idempotent, cover/vector merges
   are pointwise max — so a duplicated or re-delivered sync cannot
   double-apply. *)
and apply_sync t ~from ~vector ~cover ~csn_start ~csn ~rate ~kind payload =
  t.rescan <- true;
  let writes =
    match payload with
    | Batch.Delta writes -> writes
    | Batch.Full (snap, writes) ->
      if Wlog.install_snapshot t.wlog snap then begin
        t.st.snapshots_installed <- t.st.snapshots_installed + 1;
        if observed t then
          emit t (Event.Snapshot { from; committed = snap.Wlog.snap_ncommitted });
        (* The committed prefix the snapshot represents counts as committed
           for the primary scheme's pointer too. *)
        t.csn_committed <- max t.csn_committed snap.Wlog.snap_ncommitted
      end;
      writes
  in
  let fresh = Wlog.insert_batch t.wlog writes in
  if fresh <> [] && observed t then
    emit t (Event.Transfer { from; writes = List.length fresh });
  (* Cover merge is sound only after the writes are in the log. *)
  for o = 0 to t.n - 1 do
    if cover.(o) > t.cover.(o) then t.cover.(o) <- cover.(o)
  done;
  t.cover.(t.rid) <- now t;
  t.rates.(from) <- rate;
  for _ = 1 to Csn_buffer.offer t.csn ~start:csn_start csn do
    reject t (fun () -> "a buffered CSN slice disagrees with the known order")
  done;
  note_peer_vector t ~peer:from vector;
  t.acked_csn.(from) <- max t.acked_csn.(from) (csn_start + List.length csn);
  commit_progress t;
  match kind with
  | Batch.Push ->
    send t ~dst:from
      (Ack
         {
           from = t.rid;
           vector = Version_vector.copy (Wlog.vector t.wlog);
           csn_known = Csn_buffer.known t.csn;
         })
  | Batch.Pull_reply round -> round_reply t ~round ~from
  | Batch.Gossip -> ()

and process t ~src msg =
  (match msg with
  | Pull_req { from; vector; csn_known; round } ->
    note_peer_vector t ~peer:from vector;
    t.acked_csn.(from) <- max t.acked_csn.(from) csn_known;
    (* A pull reply is already one message per request; it is never delayed
       by batching — rounds must complete promptly. *)
    send t ~dst:from
      (sync_msg t ~peer_vector:vector ~csn_start:csn_known
         ~kind:(Batch.Pull_reply round))
  | Ack { from; vector; csn_known } ->
    note_peer_vector t ~peer:from vector;
    t.acked_csn.(from) <- max t.acked_csn.(from) csn_known
  | Transfer { from; writes; vector; cover; csn_start; csn; rate; kind } ->
    apply_sync t ~from ~vector ~cover ~csn_start ~csn ~rate ~kind:(Wire.batch_kind kind)
      (Batch.Delta writes)
  | Snapshot { from; snap; writes; vector; cover; rate; round } ->
    (* No CSN slice, and never acknowledged: [Pull_reply 0] is a no-op. *)
    apply_sync t ~from ~vector ~cover ~csn_start:0 ~csn:[] ~rate
      ~kind:(Batch.Pull_reply round) (Batch.Full (snap, writes))
  | Batch_frame s -> (
    (* Decode is typed and total: a frame that does not parse, whose
       embedded header claims a sender other than the peer it arrived from,
       or that does not have this system's shape is counted and dropped,
       never fatal. *)
    match Batch.decode s with
    | Error e -> reject t (fun () -> Transport.error_to_string e)
    | Ok b when b.Batch.from <> src ->
      reject t (fun () ->
          Printf.sprintf "batch frame claims sender %d but arrived from peer %d"
            b.Batch.from src)
    | Ok b when b.Batch.shard <> t.cfg.Config.shard_id ->
      (* A frame carrying another shard's log must never be applied: its
         writes, vector and CSN slice all describe a different log.  Reject
         and account — the interest-set-aware oracle flags the counter. *)
      t.st.wrong_shard_frames <- t.st.wrong_shard_frames + 1;
      if observed t then
        emit t
          (Event.Wrong_shard { shard = b.Batch.shard; serving = t.cfg.Config.shard_id })
    | Ok b -> (
      match check_batch t b with
      | exception Misshapen reason -> reject t (fun () -> reason)
      | () ->
        apply_sync t ~from:b.Batch.from ~vector:b.Batch.vector
          ~cover:b.Batch.cover ~csn_start:b.Batch.csn_start ~csn:b.Batch.csn
          ~rate:b.Batch.rate ~kind:b.Batch.kind b.Batch.payload)));
  pump t;
  sanity_check t

(* ------------------------------------------------------------------ *)
(* Client entry points                                                 *)

(* Deadlines: one sweep per replica.  A deadline bounds how long the client
   is willing to wait for its consistency level — the availability side of
   the tradeoff.  The sweep is armed for the earliest live deadline; when it
   fires it abandons every parked access whose deadline has passed (the
   queue entry is marked dead and dropped at the next pump) and re-arms for
   the next one. *)

(* A sweep event whose deadline is no longer [sweep_at] was superseded by an
   earlier one, or another sweep due at the same time already ran: it is a
   no-op. *)
let rec schedule_sweep t d =
  schedule t ~tag:"deadline" ~delay:(Float.max 0.0 (d -. now t)) (fun () ->
      if Float.equal d t.sweep_at then sweep t ~due:d)

(* Expire first, then call back: every timed-out access is marked done and
   counted and the sweep re-armed before any [on_timeout] runs, so a
   callback that submits again finds the queue and the sweep consistent.
   [due] covers a clock that lands a rounding step short of the deadline
   the sweep was armed for. *)
and sweep t ~due =
  let upto = Float.max (now t) due in
  let expired = ref [] and next = ref infinity in
  Deque.iter
    (fun p ->
      if p.p_done then ()
      else if p.p_deadline <= upto then begin
        p.p_done <- true;
        t.npending <- t.npending - 1;
        t.st.timeouts <- t.st.timeouts + 1;
        expired := p :: !expired
      end
      else if p.p_deadline < !next then next := p.p_deadline)
    t.pending;
  t.sweep_at <- !next;
  if !next < infinity then schedule_sweep t !next;
  List.iter
    (fun p -> match p.p_on_timeout with Some f -> f () | None -> ())
    (List.rev !expired)

let admit t p =
  t.rescan <- true;
  if not t.up then (
    match p.p_on_timeout with Some f -> f () | None -> ())
  else if deps_satisfied t p ~est:(staleness_estimate t) then
    match p.p_kind with
    | Pread (f, k) -> serve_read t p f k
    | Pwrite (op, affects, k) -> serve_write t p op affects k
  else begin
    t.st.blocked_accesses <- t.st.blocked_accesses + 1;
    if observed t then
      emit t
        (Event.Blocked
           { write = (match p.p_kind with Pread _ -> false | Pwrite _ -> true);
             deps = List.length p.p_deps });
    Deque.push_back t.pending p;
    t.npending <- t.npending + 1;
    (* Claim the sweep before triggering and pumping run continuations, so
       the audit holds throughout.  Schedule it last: a retry tick this
       access starts, due at the same instant, then fires first and gives
       the access its last chance. *)
    let arm = p.p_deadline < t.sweep_at in
    if arm then t.sweep_at <- p.p_deadline;
    trigger_syncs t p;
    (* Triggering may have satisfied the access synchronously (e.g. a pull
       round degenerates to nothing at n = 1). *)
    pump t;
    ensure_retry t;
    if arm then schedule_sweep t p.p_deadline
  end

(* An access resolves its conits once, here. *)
let submit t ~require ~deadline ~on_timeout ~deps kind =
  let deps = List.map (fun (name, b) -> (cstate t name, b)) deps in
  admit t
    {
      p_submit = now t;
      p_deps = deps;
      p_st = List.fold_left (fun acc (_, (b : Bounds.t)) -> Float.min acc b.st) infinity deps;
      p_require = require;
      p_on_timeout = on_timeout;
      p_deadline = Option.value deadline ~default:infinity;
      p_kind = kind;
      p_round = None;
      p_round_done = false;
      p_needs_round = List.exists needs_ne_round deps;
      p_st_tries = 0;
      p_done = false;
    };
  sanity_check t

let submit_read ?require ?deadline ?on_timeout t ~deps ~f ~k =
  submit t ~require ~deadline ~on_timeout ~deps (Pread (f, k))

let submit_write ?require ?deadline ?on_timeout t ~deps ~affects ~op ~k =
  submit t ~require ~deadline ~on_timeout ~deps (Pwrite (op, affects, k))

(* Clients of a crashed replica fail fast: parked accesses are abandoned
   (their timeout callbacks fire) and new submissions go straight to
   [on_timeout]. *)
let crash t =
  if t.up then begin
    emit t Event.Crash;
    t.up <- false;
    t.rescan <- true;
    t.crashes <- t.crashes + 1;
    match t.mutation with
    | Mutation.Crash_replay ->
      (* Planted bug (fuzzer self-test only): the clients are told their
         parked accesses failed, but the queue entries are not dropped —
         recovery replays them, so each such client hears back twice.  The
         nemesis liveness oracle (O5) flags the double completion; see
         doc/FAULTS.md. *)
      Deque.iter
        (fun p ->
          if not p.p_done then
            match p.p_on_timeout with Some f -> f () | None -> ())
        t.pending
    | Mutation.Off | Mutation.Oe_slack _ | Mutation.Wrong_shard ->
      let parked = t.pending in
      t.pending <- Deque.create ~filler:no_pending ();
      t.npending <- 0;
      Hashtbl.reset t.rounds;
      Deque.iter
        (fun p ->
          if not p.p_done then begin
            p.p_done <- true;
            match p.p_on_timeout with Some f -> f () | None -> ()
          end)
        parked
  end

let recover t =
  if not t.up then begin
    t.up <- true;
    t.rescan <- true;
    emit t Event.Recover;
    (* Proactively resynchronise with every peer. *)
    pull_all t ~round:0;
    if not (Queue.is_empty t.return_queue) then ensure_retry t
  end

let is_up t = t.up
let crash_count t = t.crashes

(* ------------------------------------------------------------------ *)
(* Incoming messages                                                   *)

(* One message from the transport peer [src].  A message that claims a
   sender other than [src], or does not have this system's shape, is counted
   and dropped — never applied; a crashed replica drops everything else
   silently, like a partition. *)
let receive t ~src msg =
  (* The sender the message claims, checked against the transport peer; a
     Batch frame's embedded header carries its own, checked once the frame
     decodes. *)
  let from =
    match msg with
    | Transfer { from; _ } | Snapshot { from; _ } | Pull_req { from; _ } | Ack { from; _ } -> from
    | Batch_frame _ -> src (* the frame carries its own, checked once decoded *)
  in
  if from <> src then
    reject t (fun () ->
        Printf.sprintf "message claims sender %d but arrived from peer %d" from
          src)
  else
    match check_msg t msg with
    | exception Misshapen reason -> reject t (fun () -> reason)
    | () -> if t.up then process t ~src msg

let deliver_wire t ~src s =
  match Wire.decode s with
  | Error e -> reject t (fun () -> Transport.error_to_string e)
  | Ok msg -> receive t ~src msg

let malformed_frames t = t.st.malformed_frames

(* Deliberately corrupt one per-peer outstanding entry — exists solely so
   tests can prove the sanitizer audits it. *)
let unsafe_add_outstanding t ~peer conit delta =
  let c = cstate t conit in
  if Array.length c.c_out = 0 then c.c_out <- Array.make t.n 0.0;
  c.c_out.(peer) <- c.c_out.(peer) +. delta

(* Targeted resynchronisation: one pull at [peer], answered by the peer's
   sync builder with a delta against our vector or a snapshot if the peer
   has truncated past us.  Transport supervisors call
   this on reconnect, so missed traffic heals no matter how long the link
   was down. *)
let resync t ~peer =
  if peer >= 0 && peer < t.n && peer <> t.rid then send_pull t ~dst:peer ~round:0

(* Idempotent transport teardown: sends become inert and the backend
   releases what it owns through [ep_close] (nothing, in the simulator). *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    t.ep.Transport.ep_close ()
  end

let start t =
  match t.cfg.Config.antientropy_period with
  | None -> ()
  | Some period ->
    if t.n > 1 then begin
      let tick = ref 0 in
      let ring =
        match t.cfg.Config.gossip_plan with
        | Some plan ->
          let r = plan t.rid in
          if Array.exists (fun j -> j < 0 || j >= t.n || j = t.rid) r then
            invalid_arg "Replica.start: gossip plan targets out of range";
          r
        | None ->
          (* Round-robin over every peer. *)
          Array.init (t.n - 1) (fun k ->
              let j = (t.rid + 1 + k) mod t.n in
              if j = t.rid then (j + 1) mod t.n else j)
      in
      every t ~tag:"gossip" ~period (fun () ->
          (* Deterministic ring gossip (silent while crashed). *)
          if t.up && Array.length ring > 0 then begin
            let target = ring.(!tick mod Array.length ring) in
            incr tick;
            t.st.gossips <- t.st.gossips + 1;
            push_to t ~dst:target
          end;
          true)
    end
