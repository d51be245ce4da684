type commit_scheme = Stability | Primary of int

(* How anti-entropy traffic is shipped.  [Per_write] is the paper-literal
   path: every sync event emits its own Transfer message.  [Batched]
   coalesces a replica's pushes and pull replies into one framed batch per
   peer per flush window ({!field-batch_flush}), delta-encoded against the
   peer's vector through the {!Tact_store.Batch} codec — the payload really
   is serialised.  Both modes reach the same replica databases; batched
   trades a bounded flush delay for far fewer, larger messages. *)
type sync_mode = Per_write | Batched

(* Knobs for real (Ext) transport backends and their per-peer connection
   supervisors.  Inert in simulation — the deterministic Net has no
   deadlines, sockets or retries — but validated unconditionally so a bad
   deployment config fails at [System.create]/daemon startup, not mid-run. *)
type transport_knobs = {
  connect_timeout : float;  (* deadline for one connect attempt (s) *)
  io_timeout : float;  (* read/write progress deadline (s) *)
  backoff_base : float;  (* first reconnect delay (s) *)
  backoff_cap : float;  (* ceiling for the decorrelated-jitter backoff (s) *)
  retry_limit : int;
      (* consecutive failed connects before the supervisor stops dialling and
         waits for a probe interval instead; 0 = never stop *)
  half_open_after : float;
      (* silence window (s) after which an apparently-live connection is
         suspected half-open and probed *)
  max_frame : int;  (* largest accepted wire frame (bytes) *)
  listen_backlog : int;
  drain_timeout : float;  (* grace for the daemon's SIGTERM drain (s) *)
}

let default_transport =
  {
    connect_timeout = 5.0;
    io_timeout = 10.0;
    backoff_base = 0.1;
    backoff_cap = 5.0;
    retry_limit = 0;
    half_open_after = 30.0;
    max_frame = Tact_store.Transport.default_max_frame;
    listen_backlog = 16;
    drain_timeout = 5.0;
  }

type t = {
  conits : Tact_core.Conit.t list;
  commit_scheme : commit_scheme;
  budget_policy : Tact_protocols.Budget.policy;
  antientropy_period : float option;
  retry_period : float;
  truncate_keep : int option;
  initial_db : (string * Tact_store.Value.t) list;
  procs : Tact_store.Op.procs;
      (* the write procedures every replica resolves [Op.Named] ops against *)
  gossip_plan : (int -> int array) option;
  sync : sync_mode;
  batch_flush : float;
      (* debounce window: a peer marked dirty is flushed one batch this long
         after the first mark (Batched mode only) *)
  record_accesses : bool;
      (* capture per-access observation records (the verifier's food); off
         for long bounded-memory runs, where they grow without bound *)
  bounded_log : bool;
      (* bound per-replica log memory by the truncation horizon: truncation
         also empties the cells of the writes it drops (see
         Wlog.create_bounded) *)
  shards : int;
      (* number of shards the conit space is partitioned into (Sharded
         systems); plain [System]s serve the whole space as one shard *)
  shard_id : int;
      (* which shard this replica instance's log serves — stamped into every
         outgoing Batch frame and checked against incoming ones, so a frame
         leaked across shards is rejected (and counted) instead of applied *)
  interest : (int -> int list) option;
      (* interest sets: [interest r] is the sorted list of shards replica [r]
         subscribes to (it replicates, syncs and serves only those); [None]
         subscribes every replica to every shard *)
  transport : transport_knobs;
      (* deadlines, backoff and framing bounds for real transport backends;
         inert in simulation but always validated *)
}

let default =
  {
    conits = [];
    commit_scheme = Stability;
    budget_policy = Tact_protocols.Budget.Even;
    antientropy_period = None;
    retry_period = 1.0;
    truncate_keep = None;
    initial_db = [];
    procs = [];
    gossip_plan = None;
    sync = Per_write;
    batch_flush = 0.05;
    record_accesses = true;
    bounded_log = false;
    shards = 1;
    shard_id = 0;
    interest = None;
    transport = default_transport;
  }

let conit t name =
  match List.find_opt (fun c -> String.equal c.Tact_core.Conit.name name) t.conits with
  | Some c -> c
  | None -> Tact_core.Conit.unconstrained name

let bad_interest ~n t =
  match t.interest with
  | None -> None
  | Some interest ->
    let bad = ref None in
    for r = 0 to n - 1 do
      if !bad = None then begin
        let is = interest r in
        if is = [] then bad := Some (r, -1)
        else
          List.iter
            (fun s -> if s < 0 || s >= t.shards then bad := Some (r, s))
            is
      end
    done;
    !bad

let bad_gossip_plan ~n t =
  match t.gossip_plan with
  | None -> None
  | Some plan ->
    let bad = ref None in
    for i = 0 to n - 1 do
      if !bad = None then
        Array.iter
          (fun j ->
            if j < 0 || j >= n || j = i then bad := Some (i, j))
          (plan i)
    done;
    !bad

(* Validate the transport knobs.  [not (x > 0.0)] rather than [x <= 0.0]
   so NaN — which compares false against everything and would silently
   disable a deadline — is rejected too. *)
let bad_transport (k : transport_knobs) =
  let err fmt = Printf.ksprintf Option.some fmt in
  if not (k.connect_timeout > 0.0) then
    err "transport.connect_timeout must be positive (got %g)" k.connect_timeout
  else if not (k.io_timeout > 0.0) then
    err "transport.io_timeout must be positive (got %g)" k.io_timeout
  else if not (k.backoff_base > 0.0) then
    err "transport.backoff_base must be positive (got %g)" k.backoff_base
  else if not (k.backoff_cap >= k.backoff_base) then
    err "transport.backoff_cap %g is below backoff_base %g" k.backoff_cap
      k.backoff_base
  else if k.retry_limit < 0 then
    err "transport.retry_limit must be non-negative (got %d; 0 = unbounded)"
      k.retry_limit
  else if not (k.half_open_after > 0.0) then
    err "transport.half_open_after must be positive (got %g)" k.half_open_after
  else if k.max_frame < 1024 then
    err "transport.max_frame must be at least 1024 bytes (got %d)" k.max_frame
  else if k.max_frame > 1 lsl 30 then
    err "transport.max_frame %d exceeds the 1 GiB sanity cap" k.max_frame
  else if k.listen_backlog < 1 then
    err "transport.listen_backlog must be at least 1 (got %d)" k.listen_backlog
  else if not (k.drain_timeout > 0.0) then
    err "transport.drain_timeout must be positive (got %g)" k.drain_timeout
  else None

let validate ~n t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if n <= 0 then err "system size must be positive (got %d)" n
  else
    match t.commit_scheme with
    | Primary p when p < 0 || p >= n ->
      err "primary %d is not a replica id (n = %d)" p n
    | Primary _ | Stability -> (
      (* [not (x > 0.0)], as in [bad_transport], so NaN is rejected too *)
      match t.antientropy_period with
      | Some p when not (p > 0.0) -> err "anti-entropy period must be positive"
      | _ ->
        if not (t.retry_period > 0.0) then err "retry period must be positive"
        else if (match t.truncate_keep with Some k -> k < 0 | None -> false)
        then err "truncate_keep must be non-negative"
        else if t.sync = Batched && not (t.batch_flush > 0.0) then
          err "batch_flush must be positive in Batched sync mode"
        else begin
          let dups names =
            List.length (List.sort_uniq String.compare names) <> List.length names
          in
          if dups (List.map (fun c -> c.Tact_core.Conit.name) t.conits) then
            err "duplicate conit declarations"
          else if dups (List.map fst t.procs) then
            err "duplicate procedure names"
          else if List.exists Tact_core.Conit.malformed t.conits then
            err "conit bounds must be non-negative and initial values not NaN"
          else if Tact_protocols.Budget.malformed ~n t.budget_policy then
            err "proportional budget weights need one non-negative rate per \
                 replica (n = %d) with a positive total" n
          else if t.shards < 1 then err "shards must be >= 1 (got %d)" t.shards
          else if t.shard_id < 0 || t.shard_id >= t.shards then
            err "shard_id %d is not a shard (shards = %d)" t.shard_id t.shards
          else
            match bad_interest ~n t with
            | Some (r, -1) -> err "replica %d has an empty interest set" r
            | Some (r, s) ->
              err "replica %d subscribes to shard %d (shards = %d)" r s t.shards
            | None -> (
              match bad_gossip_plan ~n t with
              | Some (i, j) ->
                err "gossip plan for replica %d targets %d (not a peer id, n = %d)"
                  i j n
              | None -> (
                match bad_transport t.transport with
                | Some m -> Error m
                | None -> Ok ()))
        end)
