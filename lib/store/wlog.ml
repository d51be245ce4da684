open Tact_util

type insertion = Inserted of Op.outcome | Duplicate | Buffered

(* Per-write state, in flat per-origin columns.  Origins are dense small
   ints and each origin's seqs are a contiguous range, so a write's cell is
   found by array arithmetic — no hashing, no key boxing, no per-write
   record — on every delivery, commit and outcome probe, and {!writes_since}
   merges over runs of the write column.  Logical cell [i] covers seq
   [ibase + i + 1] and sits at column index [head + i], wrapped: the columns
   are parallel rings that grow and shrink together by [Deque]'s capacity
   policy, so a log whose cells are shed as fast as they are added never
   copies them.  Bounded-memory logs
   advance [ibase] past dead prefixes (see {!shed_dead}); unbounded logs
   keep [ibase = 0] forever.  Every seq in [(trunc_vec.(o), vector.(o)]] is
   resident, in seq (hence timestamp) order, which is all {!writes_since}
   needs.

   - [writes]: the write while it is physically resident in the log
     (tentative or retained committed); the [no_write] sentinel (compared
     physically) once truncated, snapshot-covered, or a never-received seq
     the vector jumped over.
   - [flags]: one byte per cell: the kind of the write's latest outcome
     (the tentative one, or the final one once committed), whether that
     outcome is final, and whether the write has committed.
   - [floats]: [x] of an [Applied (Float x)] outcome, unboxed.
   - [others]: any other outcome; [[||]] until the origin first has
     one.

   {!outcome} and {!final_outcome} rebuild the option when asked.  Every
   cell outside the live range is empty: [no_write], flags 0, [no_other]. *)
type origin_index = {
  mutable ibase : int;  (* seqs <= ibase have been evicted from the index *)
  mutable head : int;  (* column index of logical cell 0 *)
  mutable len : int;  (* cells: seqs ibase + 1 .. ibase + len *)
  mutable writes : Write.t array;
  mutable flags : Bytes.t;
  mutable floats : float array;
  mutable others : Op.outcome array;
}

(* One conit's weight tallies, updated together by one lookup.  All fields
   are floats, so the record is stored flat and updating it allocates
   nothing.  [committed_value] is [nan] until the conit first commits (or a
   snapshot supplies it): "never committed" stays distinct from 0.0, so a
   snapshot lists exactly the conits that committed. *)
type tally = {
  mutable value : float;  (* accumulated nweight of every known write *)
  mutable tent_ow : float;  (* summed oweight of the tentative suffix *)
  mutable committed_value : float;  (* accumulated nweight of committed writes *)
}

(* Scratch state of {!writes_since}'s k-way merge, one entry per live origin
   (a cursor), sized for every origin at creation so a merge allocates
   nothing but its result.  [m_pos.(c)] is the logical cell of cursor
   [c]'s current write, the next one extracted from its origin; the cursor
   is spent once that index falls below [m_lo.(c)].  [m_key] is an unboxed
   copy of each current write's accept_time, so heap comparisons stay on a
   flat float array.  [m_cur] is cleared after every merge, so it pins no
   write. *)
type merge = {
  m_org : int array;
  m_pos : int array;
  m_lo : int array;
  m_key : float array;
  m_cur : Write.t array;
  m_heap : int array;  (* cursors, a binary max-heap on (key, origin) *)
}

type snapshot = {
  snap_db : Db.t;
  snap_vector : Version_vector.t;
  snap_ncommitted : int;
  snap_values : (string * float) list;
}

(* Both halves of the log are indexed deques kept in their canonical orders:
   the committed prefix in commit order, as one packed [(origin, seq)] int
   per retained write (append at the back on commit, drop from the front on
   truncation, which so reads only flat memory and the dropped write's
   cells), and the tentative suffix in timestamp order
   (binary-search insertion; the common landing-at-the-tail case is a plain
   append).

   The log holds one database image: the committed prefix plus
   [tent.(0..a-1)] applied, where [a = Deque.length undo] and [undo.(i)]
   journals the db mutations made when [tent.(i)] was applied.  The
   committed image is that image with the [a] journals reverted, newest
   first; it is materialised only on a copy ({!committed_db}).
   Tentative writes are applied when the image is read, not when they
   arrive.  An arrival at position [p < a] reverts the journals back to
   [p] — O(applied suffix beyond the insertion point) — and re-execution
   waits for the next read ({!force}).  A replica whose clients never read
   never applies a remote write tentatively at all, and keeps no journal or
   tentative outcome for it: committing it is its one application. *)
type t = {
  nreplicas : int;
  initial : (string * Value.t) list;
  procs : Op.procs;
  bounded : bool;
      (* bounded-memory long runs: truncation also empties the per-write
         cells (outcome, final and committed flags) *)
  committed : int Deque.t;
      (* retained committed prefix, commit order: each write's id packed as
         [seq * nreplicas + origin] (see {!pack}) *)
  mutable ncommitted : int;
  tent : Write.t Deque.t; (* tentative suffix, timestamp order *)
  undo : Db.undo Deque.t;
      (* undo.(i) reverts the application of tent.(i); only the applied
         prefix of [tent] has entries *)
  mutable image : Db.t;
      (* the committed prefix plus the applied part of the suffix *)
  mutable audit_db : Db.t option;
      (* sanitize only: the committed image, kept apart by applying every
         commit to it, so the undo round-trip is audited against an image
         the journals did not produce *)
  vector : Version_vector.t;
  committed_vec : Version_vector.t;  (* writes in the committed prefix *)
  trunc_vec : Version_vector.t;  (* writes that may have been discarded *)
  index : origin_index array;  (* per-write state, per origin *)
  mutable nresident : int;  (* cells whose write is a real write *)
  pending : (Write.id, Write.t) Hashtbl.t; (* per-origin sequence gaps *)
  tallies : (string, tally) Hashtbl.t;  (* conit -> its weight tallies *)
  mutable memo_conit : string;  (* the conit {!tally} resolved last ... *)
  mutable memo_tally : tally;  (* ... and its tallies ([no_tally]: none yet) *)
  merge : merge;
  mutable nrollbacks : int;
  mutable shadow_vector : Version_vector.t option;
      (* last vector seen by the sanitizer, for monotonicity (sanitize only) *)
}

(* Fillers: static sentinels that occupy vacated deque slots and cells. *)
let no_write =
  Write.make ~id:{ origin = -1; seq = 0 } ~accept_time:0.0 ~op:Op.Noop ~affects:[]

let no_other = Op.Conflict ""

(* A cell's flag byte: the outcome kind in the low two bits, then the final
   and committed bits. *)
let k_none = 0
let k_float = 1
let k_other = 2
let kind_mask = 3
let f_final = 4
let f_committed = 8

let no_tally = { value = 0.0; tent_ow = 0.0; committed_value = Float.nan }

let create_bounded ~procs ~bounded ~replicas ~initial =
  {
    nreplicas = replicas;
    initial;
    procs;
    bounded;
    committed = Deque.create ~filler:0 ();
    ncommitted = 0;
    tent = Deque.create ~filler:no_write ();
    undo = Deque.create ~filler:Db.no_undo ();
    image = Db.create initial;
    audit_db = (if Sanitize.enabled () then Some (Db.create initial) else None);
    vector = Version_vector.create replicas;
    committed_vec = Version_vector.create replicas;
    trunc_vec = Version_vector.create replicas;
    index =
      Array.init replicas (fun _ ->
          { ibase = 0; head = 0; len = 0; writes = [||]; flags = Bytes.empty;
            floats = [||]; others = [||] });
    nresident = 0;
    pending = Hashtbl.create 8;
    tallies = Hashtbl.create 16;
    memo_conit = "";
    memo_tally = no_tally;
    merge =
      { m_org = Array.make replicas 0; m_pos = Array.make replicas 0;
        m_lo = Array.make replicas 0; m_key = Array.make replicas 0.0;
        m_cur = Array.make replicas no_write; m_heap = Array.make replicas 0 };
    nrollbacks = 0;
    shadow_vector = None;
  }

let create ~replicas ~initial =
  create_bounded ~procs:[] ~bounded:false ~replicas ~initial

let htbl_add tbl key delta =
  let v = match Hashtbl.find_opt tbl key with Some v -> v | None -> 0.0 in
  Hashtbl.replace tbl key (v +. delta)

let htbl_get tbl key =
  match Hashtbl.find_opt tbl key with Some v -> v | None -> 0.0

(* The conit's tallies, created on first sight.  Consecutive lookups of one
   conit (a write's registration and its commit, a run of writes on one
   conit) skip the hash through the memo: names decoded from the wire are
   fresh strings, hence the content test behind the physical one.  Tallies
   are never removed ({!install_snapshot} resets them in place), so the memo
   never goes stale.  [Hashtbl.find] rather than [find_opt]: a miss on a
   known conit allocates nothing either. *)
let tally t conit =
  if
    t.memo_tally != no_tally
    && (t.memo_conit == conit || String.equal t.memo_conit conit)
  then t.memo_tally
  else begin
    let r =
      match Hashtbl.find t.tallies conit with
      | r -> r
      | exception Not_found ->
        let r = { value = 0.0; tent_ow = 0.0; committed_value = Float.nan } in
        Hashtbl.add t.tallies conit r;
        r
    in
    t.memo_conit <- conit;
    t.memo_tally <- r;
    r
  end

(* A committed value, reading "never committed" as 0.0. *)
let committed_or_zero r =
  if Float.is_nan r.committed_value then 0.0 else r.committed_value

(* ------------------------------------------------------------------ *)
(* Per-origin columns                                                  *)

(* The column index of logical cell [i] (below twice the capacity): the
   columns are rings, laid out as a [Deque.t] is. *)
let slot oi i = Deque.wrap ~cap:(Array.length oi.writes) (oi.head + i)

(* The column index of a covered [seq]'s cell. *)
let pos oi seq = slot oi (seq - oi.ibase - 1)

(* Empty the cell at column index [p]. *)
let clear_cell oi p =
  oi.writes.(p) <- no_write;
  Bytes.set oi.flags p '\000';
  if Array.length oi.others > 0 then oi.others.(p) <- no_other

(* Move the live cells, in order, to column index 0 of fresh columns of
   capacity [cap]. *)
let realloc oi cap =
  let writes = Array.make cap no_write and flags = Bytes.make cap '\000'
  and floats = Array.make cap 0.0
  and others = if Array.length oi.others > 0 then Array.make cap no_other else [||] in
  let first = min oi.len (Array.length oi.writes - oi.head) in
  let copy src_pos dst_pos n =
    Array.blit oi.writes src_pos writes dst_pos n;
    Bytes.blit oi.flags src_pos flags dst_pos n;
    Array.blit oi.floats src_pos floats dst_pos n;
    if Array.length others > 0 then Array.blit oi.others src_pos others dst_pos n
  in
  copy oi.head 0 first;
  copy 0 first (oi.len - first);
  oi.writes <- writes;
  oi.flags <- flags;
  oi.floats <- floats;
  oi.others <- others;
  oi.head <- 0

(* Append one empty cell, growing full columns as a [Deque] grows. *)
let push_cell oi =
  if oi.len = Array.length oi.writes then realloc oi (Deque.grown oi.len);
  oi.len <- oi.len + 1

(* Drop the first [n] cells, advancing [ibase], then shrink the columns as
   a [Deque] shrinks after [drop_front]. *)
let drop_cells oi n =
  for i = 0 to n - 1 do
    clear_cell oi (slot oi i)
  done;
  oi.head <- (if n = oi.len then 0 else slot oi n);
  oi.len <- oi.len - n;
  oi.ibase <- oi.ibase + n;
  let cap = Deque.shrunk ~cap:(Array.length oi.writes) ~len:oi.len in
  if cap <> Array.length oi.writes then realloc oi cap

let flag oi p = Char.code (Bytes.get oi.flags p)
let set_flag oi p f = Bytes.set oi.flags p (Char.unsafe_chr f)

(* Record [o] as the latest outcome of the cell at [p], keeping its final
   and committed bits. *)
let set_outcome oi p (o : Op.outcome) =
  let kind =
    match o with
    | Op.Applied (Value.Float x) ->
      oi.floats.(p) <- x;
      if Array.length oi.others > 0 then oi.others.(p) <- no_other;
      k_float
    | Op.Applied _ | Op.Conflict _ ->
      if Array.length oi.others = 0 then
        oi.others <- Array.make (Array.length oi.writes) no_other;
      oi.others.(p) <- o;
      k_other
  in
  set_flag oi p (flag oi p land lnot kind_mask lor kind)

(* The latest outcome of the cell at [p], rebuilt. *)
let get_outcome oi p =
  let kind = flag oi p land kind_mask in
  if kind = k_float then Some (Op.Applied (Value.Float oi.floats.(p)))
  else if kind = k_other then Some oi.others.(p)
  else None

(* The column index of an id's cell, or -1 when the index does not cover
   it.  Allocation-free. *)
let cell t (id : Write.id) =
  let oi = t.index.(id.origin) in
  let i = id.seq - oi.ibase - 1 in
  if i < 0 || i >= oi.len then -1 else slot oi i

(* Extend the origin's cells to cover [seq], padding any gap the vector
   jumped over (snapshot installation) with empty cells, and return [seq]'s
   column index.  Registration is per-origin monotone, so the common case
   appends exactly one cell. *)
let cell_ensure t origin seq =
  let oi = t.index.(origin) in
  let need = seq - oi.ibase in
  while oi.len < need do push_cell oi done;
  slot oi (need - 1)

(* Is the write physically resident in the log?  Cells outlive residency
   (unbounded logs keep them forever), and bounded logs only shed cells
   whose write is already gone. *)
let resident t origin seq =
  let oi = t.index.(origin) in
  let i = seq - oi.ibase - 1 in
  i >= 0 && i < oi.len && oi.writes.(slot oi i) != no_write

let resident_write t (id : Write.id) =
  let p = cell t id in
  if p >= 0 && t.index.(id.origin).writes.(p) != no_write then
    Some t.index.(id.origin).writes.(p)
  else None

(* The committed flag while the cell lives.  A shed cell (bounded mode)
   reads as not committed here; callers that can meet shed ids
   ({!commit_ids}) treat non-residency as already covered. *)
let committed_mem t (id : Write.id) =
  let p = cell t id in
  p >= 0 && flag t.index.(id.origin) p land f_committed <> 0

(* A committed write's id as one int, so the committed prefix is one flat
   int deque.  Origins are below [nreplicas] (the index has no others). *)
let pack t (id : Write.id) = (id.seq * t.nreplicas) + id.origin
let origin_of t k = k mod t.nreplicas
let seq_of t k = k / t.nreplicas

(* The retained committed prefix's [i]th id and write (resident by
   construction). *)
let retained_id t i =
  let k = Deque.get t.committed i in
  { Write.origin = origin_of t k; seq = seq_of t k }

let retained_write t i =
  let id = retained_id t i in
  t.index.(id.origin).writes.(cell t id)

(* Bounded-memory mode: pop dead leading cells (write gone) so the index
   stays within the truncation horizon.  Stops at the first resident cell —
   under CSN commits a lower-seq straggler can outlive the truncation that
   overtook it, and its cell must keep serving lookups until the write
   itself is popped. *)
let shed_dead t origin =
  let oi = t.index.(origin) in
  let n = ref 0 in
  while !n < oi.len && oi.writes.(slot oi !n) == no_write do incr n done;
  if !n > 0 then drop_cells oi !n

(* The committed image, on a copy: the image with the applied suffix's
   journals reverted, newest first. *)
let committed_db t =
  let d = Db.copy t.image in
  for i = Deque.length t.undo - 1 downto 0 do
    Db.revert d (Deque.get t.undo i)
  done;
  d

(* ------------------------------------------------------------------ *)
(* Invariant audit (sanitize mode)                                     *)

(* Full structural audit of the log: the invariants every fast path in this
   module relies on.
   O(log size) — only the TACT_SANITIZE checking mode runs it per-operation. *)
let invariant_violations t =
  let bad = ref [] in
  let addf fmt = Printf.ksprintf (fun m -> bad := m :: !bad) fmt in
  (* Tentative suffix strictly timestamp-sorted. *)
  for i = 1 to Deque.length t.tent - 1 do
    let a = Deque.get t.tent (i - 1) and b = Deque.get t.tent i in
    if Write.ts_compare a b >= 0 then
      addf "tentative suffix out of order at positions %d..%d: %s does not precede %s"
        (i - 1) i (Write.to_string a) (Write.to_string b)
  done;
  (* Undo journal covers a prefix of the tentative suffix (all of it right
     after a read). *)
  if Deque.length t.undo > Deque.length t.tent then
    addf "undo journal length %d exceeds tentative suffix length %d"
      (Deque.length t.undo) (Deque.length t.tent);
  let retained = Deque.length t.committed in
  (* Id discipline: retained committed writes are covered by the committed
     vector (the verifier rebuilds an access's committed prefix from that
     vector), resident, flagged committed and hold their final outcome;
     tentative writes are not committed; the known vector covers everything
     in the log. *)
  for i = 0 to retained - 1 do
    let id = retained_id t i in
    if not (Version_vector.covers t.committed_vec ~origin:id.origin ~seq:id.seq) then
      addf "committed vector %s does not cover retained committed write %s"
        (Version_vector.to_string t.committed_vec) (Write.id_to_string id);
    match resident_write t id with
    | None -> addf "committed write %s is not resident" (Write.id_to_string id)
    | Some _ ->
      let f = flag t.index.(id.origin) (cell t id) in
      if f land f_committed = 0 then
        addf "committed write %s missing from the committed-id set" (Write.id_to_string id);
      if f land f_final = 0 then
        addf "committed write %s holds no final outcome" (Write.id_to_string id)
  done;
  let pos = ref 0 in
  Deque.iter
    (fun (w : Write.t) ->
      if committed_mem t w.id then
        addf "tentative write %s (position %d) is also marked committed"
          (Write.id_to_string w.id) !pos;
      if resident_write t w.id = None then
        addf "tentative write %s (position %d) missing from the id index"
          (Write.id_to_string w.id) !pos;
      if not (Version_vector.covers t.vector ~origin:w.id.origin ~seq:w.id.seq)
      then
        addf "known vector %s does not cover tentative write %s (position %d)"
          (Version_vector.to_string t.vector) (Write.id_to_string w.id) !pos;
      incr pos)
    t.tent;
  if not (Version_vector.dominates t.vector t.committed_vec) then
    addf "known vector %s does not dominate committed vector %s"
      (Version_vector.to_string t.vector)
      (Version_vector.to_string t.committed_vec);
  (* Columns: every seq in trunc+1..vector is resident — the invariant the
     writes_since merge path relies on; every live cell holds its own write
     or none, a flag byte that names the outcome it stores, and a final
     outcome only once committed; every cell outside the live range is
     empty; the columns are no larger than the ring policy keeps them; and
     the resident cells are the ones counted. *)
  for o = 0 to t.nreplicas - 1 do
    for seq = Version_vector.get t.trunc_vec o + 1 to Version_vector.get t.vector o do
      if not (resident t o seq) then
        addf "w%d.%d is above the truncation vector but not resident" o seq
    done
  done;
  let nresident = ref 0 in
  Array.iteri
    (fun o oi ->
      let cap = Array.length oi.writes in
      if
        Bytes.length oi.flags <> cap || Array.length oi.floats <> cap
        || (Array.length oi.others <> 0 && Array.length oi.others <> cap)
      then addf "origin %d: columns of unequal capacity" o
      else if
        oi.len < 0 || oi.len > cap || oi.ibase < 0
        || (if cap = 0 then oi.head <> 0 else oi.head < 0 || oi.head >= cap)
      then addf "origin %d: %d live cells from index %d in capacity %d" o oi.len oi.head cap
      else begin
        if oi.ibase + oi.len > Version_vector.get t.vector o then
          addf "origin %d: cells reach seq %d past the known vector %d" o
            (oi.ibase + oi.len) (Version_vector.get t.vector o);
        if Deque.shrunk ~cap ~len:oi.len <> cap then
          addf "origin %d: %d cells in columns of capacity %d, which should shrink" o
            oi.len cap;
        let other p = Array.length oi.others > 0 && oi.others.(p) != no_other in
        for i = 0 to cap - 1 do
          let p = slot oi i in
          let f = flag oi p and seq = oi.ibase + i + 1 in
          if i >= oi.len then begin
            if oi.writes.(p) != no_write || f <> 0 || other p then
              addf "origin %d: column index %d outside the live cells is not empty" o p
          end
          else begin
            let w = oi.writes.(p) in
            if w != no_write then begin
              incr nresident;
              if w.Write.id.origin <> o || w.Write.id.seq <> seq then
                addf "cell of w%d.%d holds %s" o seq (Write.id_to_string w.Write.id)
            end;
            if f land lnot (kind_mask lor f_final lor f_committed) <> 0 then
              addf "cell of w%d.%d has flag byte %d" o seq f;
            if (f land kind_mask = k_other) <> other p then
              addf "cell of w%d.%d: outcome kind %d disagrees with its other outcome" o
                seq (f land kind_mask);
            if f land f_final <> 0 && (f land f_committed = 0 || f land kind_mask = k_none)
            then addf "cell of w%d.%d is final but not committed with an outcome" o seq
          end
        done
      end)
    t.index;
  if !nresident <> t.nresident then
    addf "%d resident cells, %d counted" !nresident t.nresident;
  (* Weight accounting: the incremental conit-value and order-weight tallies
     must agree with a recount of the tentative suffix. *)
  let tent_n = Hashtbl.create 16 and tent_o = Hashtbl.create 16 in
  Deque.iter
    (fun (w : Write.t) ->
      List.iter
        (fun { Write.conit; nweight; oweight } ->
          htbl_add tent_n conit nweight;
          htbl_add tent_o conit oweight)
        w.affects)
    t.tent;
  let keys tbl =
    (* lint: allow hashtbl-fold — key collection, sorted before use *)
    Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
  in
  let conits = List.sort_uniq String.compare (keys t.tallies @ keys tent_n) in
  let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a +. Float.abs b) in
  List.iter
    (fun c ->
      let value, tent_ow, committed =
        match Hashtbl.find_opt t.tallies c with
        | Some r -> (r.value, r.tent_ow, committed_or_zero r)
        | None -> (0.0, 0.0, 0.0)
      in
      let expect = committed +. htbl_get tent_n c in
      if not (close value expect) then
        addf "conit %S value tally %g diverges from recount %g" c value expect;
      if not (close tent_ow (htbl_get tent_o c)) then
        addf "conit %S tentative order weight %g diverges from recount %g" c
          tent_ow (htbl_get tent_o c))
    conits;
  (* Undo round-trip: replaying every journal entry newest-first over a copy
     of the image must restore the committed image exactly.  The reference
     is the sanitizer's own committed image, or, for a log built without
     it, a replay of the committed prefix when all of it is retained. *)
  let reference =
    match t.audit_db with
    | Some d -> Some d
    | None when retained = t.ncommitted ->
      let d = Db.create t.initial in
      for i = 0 to retained - 1 do
        ignore (Op.apply ~procs:t.procs (retained_write t i).op d)
      done;
      Some d
    | None -> None
  in
  (match reference with
  | Some d when not (Db.equal (committed_db t) d) ->
    addf "undo journal does not revert the image to the committed image"
  | Some _ | None -> ());
  List.rev !bad

let sanitize ?(ctx = "wlog") t =
  if Sanitize.enabled () then begin
    let bad = invariant_violations t in
    let bad =
      match t.shadow_vector with
      | Some old when not (Version_vector.dominates t.vector old) ->
        Printf.sprintf "known vector regressed: %s no longer dominates %s"
          (Version_vector.to_string t.vector) (Version_vector.to_string old)
        :: bad
      | Some _ | None -> bad
    in
    t.shadow_vector <- Some (Version_vector.copy t.vector);
    Sanitize.report ~ctx bad
  end

(* Deliberately corrupt the tentative suffix by swapping two entries —
   exists solely so tests can prove the sanitizer trips on real damage. *)
let unsafe_swap_tentative t i j =
  let a = Deque.get t.tent i and b = Deque.get t.tent j in
  Deque.set t.tent i b;
  Deque.set t.tent j a

(* A known write's weights join its conits' tallies (plain recursion: a
   closure over [t] would allocate per write). *)
let rec tally_known t = function
  | [] -> ()
  | { Write.conit; nweight; oweight } :: rest ->
    let r = tally t conit in
    r.value <- r.value +. nweight;
    r.tent_ow <- r.tent_ow +. oweight;
    tally_known t rest

(* A committing write's weights move from the tentative to the committed
   tallies. *)
let rec tally_committed t = function
  | [] -> ()
  | { Write.conit; nweight; oweight } :: rest ->
    let r = tally t conit in
    r.committed_value <- committed_or_zero r +. nweight;
    r.tent_ow <- r.tent_ow +. -.oweight;
    tally_committed t rest

(* Bookkeeping common to every successful insertion. *)
let register t (w : Write.t) =
  (* The cell first: extending the columns may replace them. *)
  let p = cell_ensure t w.id.origin w.id.seq in
  t.index.(w.id.origin).writes.(p) <- w;
  t.nresident <- t.nresident + 1;
  Version_vector.set t.vector w.id.origin w.id.seq;
  tally_known t w.affects

(* Apply one tentative write to the image, journalling its mutations so it
   can be rolled back, and (re-)recording its outcome — outcomes may change
   across reorderings; that is the point of write procedures. *)
let apply_one t (w : Write.t) =
  let outcome, u =
    Db.recording t.image (fun () -> Op.apply ~procs:t.procs w.op t.image)
  in
  set_outcome t.index.(w.id.origin) (cell t w.id) outcome;
  Deque.push_back t.undo u

(* Apply the unapplied tail of the suffix, so that the image reflects all
   of it.  Every read of the image or of a tentative outcome goes
   through here first. *)
let force t =
  for i = Deque.length t.undo to Deque.length t.tent - 1 do
    apply_one t (Deque.get t.tent i)
  done

(* Revert the applications from suffix position [pos] on, newest first. *)
let revert_to t pos =
  while Deque.length t.undo > pos do
    Db.revert t.image (Deque.pop_back t.undo)
  done

(* After insertions whose lowest landing index is [pos]: the applications at
   or beyond it ran in a now-stale order, so revert them (one rollback).
   Their re-execution waits for the next {!force}. *)
let unapply_from t pos =
  if pos < Deque.length t.undo then begin
    t.nrollbacks <- t.nrollbacks + 1;
    revert_to t pos
  end

(* Insert into the tentative suffix at its timestamp-order position (without
   applying); returns the insertion index. *)
let insert_tent t (w : Write.t) =
  let n = Deque.length t.tent in
  if n = 0 || Write.ts_compare (Deque.get t.tent (n - 1)) w < 0 then begin
    Deque.push_back t.tent w;
    n
  end
  else begin
    let pos = Deque.upper_bound t.tent ~cmp:Write.ts_compare w in
    Deque.insert t.tent pos w;
    pos
  end

let next_seq t origin = Version_vector.get t.vector origin + 1

let accept t (w : Write.t) =
  if w.id.seq <> next_seq t w.id.origin then
    invalid_arg
      (Printf.sprintf "Wlog.accept: %s out of sequence (expected seq %d)"
         (Write.id_to_string w.id) (next_seq t w.id.origin));
  register t w;
  unapply_from t (insert_tent t w);
  force t;
  sanitize ~ctx:"wlog.accept" t;
  match get_outcome t.index.(w.id.origin) (cell t w.id) with
  | Some o -> o
  | None -> assert false

let known t id =
  Version_vector.covers t.vector ~origin:id.Write.origin ~seq:id.Write.seq

(* Drain the pending buffer for an origin after its gap filled.  Each drained
   write must be registered before looking for the next one — registration is
   what advances the vector the lookup keys on. *)
let rec drain_pending t origin acc minpos =
  if Hashtbl.length t.pending = 0 then (List.rev acc, minpos)
  else
    let id = { Write.origin; seq = next_seq t origin } in
    match Hashtbl.find_opt t.pending id with
    | None -> (List.rev acc, minpos)
    | Some w ->
      Hashtbl.remove t.pending id;
      register t w;
      let pos = insert_tent t w in
      drain_pending t origin (w :: acc) (min minpos pos)

(* Insert a fresh write plus whatever its arrival releases from the pending
   buffer; returns the fresh writes (oldest first) and the minimum insertion
   index.  Does not touch the full image — callers finish with
   {!unapply_from}. *)
let insert_positions t (w : Write.t) =
  register t w;
  let pos = insert_tent t w in
  let drained, minpos = drain_pending t w.id.origin [] pos in
  (w :: drained, minpos)

let insert t (w : Write.t) =
  if known t w.id then Duplicate
  else if w.id.seq > next_seq t w.id.origin then begin
    Hashtbl.replace t.pending w.id w;
    Buffered
  end
  else begin
    let _, minpos = insert_positions t w in
    unapply_from t minpos;
    force t;
    sanitize ~ctx:"wlog.insert" t;
    match get_outcome t.index.(w.id.origin) (cell t w.id) with
    | Some o -> Inserted o
    | None -> assert false
  end

(* [Write.ts_compare a b <= 0], with the common strict case decided here
   on the accept times. *)
let rec ts_sorted = function
  | (a : Write.t) :: ((b : Write.t) :: _ as rest) ->
    (a.accept_time < b.accept_time || Write.ts_compare a b <= 0) && ts_sorted rest
  | [ _ ] | [] -> true

(* The batch loop: [fresh] holds the newly known writes newest first,
   [drained] whether a filled gap released pending writes, [minpos] the
   lowest landing index.  A plain loop, so a batch allocates only the
   result list. *)
let rec insert_batch_from t fresh drained minpos = function
  | (w : Write.t) :: rest ->
    if known t w.id then insert_batch_from t fresh drained minpos rest
    else if w.id.seq > next_seq t w.id.origin then begin
      Hashtbl.replace t.pending w.id w;
      insert_batch_from t fresh drained minpos rest
    end
    else begin
      register t w;
      let pos = insert_tent t w in
      match
        if Hashtbl.length t.pending = 0 then None
        else Some (drain_pending t w.id.origin [] pos)
      with
      | None | Some ([], _) -> insert_batch_from t (w :: fresh) drained (min minpos pos) rest
      | Some (released, mp) ->
        insert_batch_from t (List.rev_append (w :: released) fresh) true (min minpos mp) rest
    end
  | [] ->
    (* At most one rollback for the whole batch, from the lowest position
       any of its writes landed at; nothing is applied until the next
       read. *)
    unapply_from t minpos;
    sanitize ~ctx:"wlog.insert_batch" t;
    (* The fresh writes are a subsequence of the sorted batch, unless a
       filled gap released pending writes of its origin, which may
       interleave with the batch's later writes. *)
    if drained then List.sort Write.ts_compare fresh else List.rev fresh

(* Every producer of a batch is [writes_since], whose output is already in
   timestamp order, so the sort is for foreign input only. *)
let insert_batch t ws =
  let ws = if ts_sorted ws then ws else List.sort Write.ts_compare ws in
  insert_batch_from t [] false max_int ws

let vector t = t.vector

(* Heap order for {!writes_since}'s merge: cursor [a] above cursor [b] when
   its current write is later in timestamp order.  Cursors are distinct
   origins, so an accept_time tie breaks on the origin alone, exactly as
   [Write.ts_compare] does (times are never NaN). *)
let merge_greater m a b =
  let ka = m.m_key.(a) and kb = m.m_key.(b) in
  ka > kb || (ka = kb && m.m_org.(a) > m.m_org.(b))

let rec merge_sift_up m i =
  if i > 0 then begin
    let h = m.m_heap in
    let p = (i - 1) / 2 in
    if merge_greater m h.(i) h.(p) then begin
      let tmp = h.(i) in
      h.(i) <- h.(p);
      h.(p) <- tmp;
      merge_sift_up m p
    end
  end

let rec merge_sift_down m size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let h = m.m_heap in
    let c = if l + 1 < size && merge_greater m h.(l + 1) h.(l) then l + 1 else l in
    if merge_greater m h.(c) h.(i) then begin
      let tmp = h.(i) in
      h.(i) <- h.(c);
      h.(c) <- tmp;
      merge_sift_down m size c
    end
  end

(* Serve the delta beyond [v] by k-way-merging the tails of the write
   columns in place: each origin's missing writes are the tail of its
   (seq-ordered, hence ts-ordered) cells, so a heap merge over the live
   origins yields the result in timestamp order directly — O(delta log k),
   no hashing, no sort, and no allocation but the result list (the cursors
   live in the log's scratch arrays).  When one origin alone has missing
   writes (every own-write push, every ring gossip), they are consed
   straight from its column. *)
let writes_since t v =
  let n = t.nreplicas in
  (* The live origins: the ones with missing writes. *)
  let m = t.merge in
  let k = ref 0 in
  for origin = 0 to n - 1 do
    let have = Version_vector.get v origin in
    if Version_vector.get t.vector origin > have then begin
      if have < Version_vector.get t.trunc_vec origin then begin
        (* Error path only: name the first seq actually gone (under CSN
           commits a lower-seq straggler may outlive the truncation that
           overtook it), matching the probe order of the old implementation
           byte for byte. *)
        let seq = ref (have + 1) in
        while resident t origin !seq do incr seq done;
        invalid_arg
          (Printf.sprintf
             "Wlog.writes_since: w%d.%d was truncated (check can_serve first)"
             origin !seq)
      end;
      m.m_org.(!k) <- origin;
      incr k
    end
  done;
  (* Every seq in (trunc_vec, vector] is resident, so an origin's missing
     seqs [have + 1 .. upto] are the consecutive logical cells
     [have - ibase .. upto - ibase - 1]; the merge's cursors hold logical
     cells. *)
  match !k with
  | 0 -> []
  | 1 ->
    let origin = m.m_org.(0) in
    let oi = t.index.(origin) in
    let outl = ref [] in
    for i = Version_vector.get t.vector origin - oi.ibase - 1
        downto Version_vector.get v origin - oi.ibase do
      outl := oi.writes.(slot oi i) :: !outl
    done;
    !outl
  | k ->
    (* Merge in descending order from the tails, so each extracted write
       conses straight onto the front of the result: ascending output, one
       cons per element, no rev and no intermediate array. *)
    for c = 0 to k - 1 do
      let origin = m.m_org.(c) in
      let oi = t.index.(origin) in
      let i = Version_vector.get t.vector origin - oi.ibase - 1 in
      let w = oi.writes.(slot oi i) in
      m.m_pos.(c) <- i;
      m.m_lo.(c) <- Version_vector.get v origin - oi.ibase;
      m.m_cur.(c) <- w;
      m.m_key.(c) <- w.Write.accept_time;
      m.m_heap.(c) <- c;
      merge_sift_up m c
    done;
    let size = ref k in
    let outl = ref [] in
    while !size > 0 do
      let c = m.m_heap.(0) in
      outl := m.m_cur.(c) :: !outl;
      let p = m.m_pos.(c) - 1 in
      if p >= m.m_lo.(c) then begin
        let oi = t.index.(m.m_org.(c)) in
        let w = oi.writes.(slot oi p) in
        m.m_pos.(c) <- p;
        m.m_cur.(c) <- w;
        m.m_key.(c) <- w.Write.accept_time
      end
      else begin
        decr size;
        m.m_heap.(0) <- m.m_heap.(!size)
      end;
      merge_sift_down m !size 0
    done;
    Array.fill m.m_cur 0 k no_write;
    !outl

let db t =
  force t;
  t.image
let tentative t = Deque.to_list t.tent
let tentative_ids t = List.init (Deque.length t.tent) (fun i -> (Deque.get t.tent i).Write.id)
let iter_tentative t f = Deque.iter f t.tent
let committed t = List.init (Deque.length t.committed) (retained_write t)
let committed_count t = t.ncommitted
let num_known t = t.nresident

(* Move one write into the committed prefix: its latest outcome, already in
   its cell, becomes its final one.  Under the sanitizer the write is
   applied to the audit image too, and must reach the same outcome there. *)
let commit_one t (w : Write.t) =
  let oi = t.index.(w.id.origin) in
  let p = cell t w.id in
  (match t.audit_db with
  | None -> ()
  | Some d -> (
    match (Op.apply ~procs:t.procs w.op d, get_outcome oi p) with
    | Op.Applied a, Some (Op.Applied b) when Value.equal a b -> ()
    | Op.Conflict a, Some (Op.Conflict b) when String.equal a b -> ()
    | _ ->
      Sanitize.violation ~ctx:"wlog.commit"
        "%s commits with an outcome its committed application does not reach"
        (Write.id_to_string w.id)));
  set_flag oi p (flag oi p lor f_final lor f_committed);
  Version_vector.set t.committed_vec w.id.origin
    (max w.id.seq (Version_vector.get t.committed_vec w.id.origin));
  Deque.push_back t.committed (pack t w.id);
  t.ncommitted <- t.ncommitted + 1;
  tally_committed t w.affects

(* Apply a write that is being committed to the image, which must be the
   committed image (nothing of the suffix applied) — plainly, as it will
   never be reverted — and record its outcome. *)
let apply_committed t (w : Write.t) =
  set_outcome t.index.(w.id.origin) (cell t w.id) (Op.apply ~procs:t.procs w.op t.image)

(* Commit the oldest tentative write.  If it was applied, it was applied
   over exactly the committed image, so its journal is dropped and its
   tentative outcome is final; if not, nothing is applied and the image is
   the committed one, so committing is its one application. *)
let commit_front t =
  let w = Deque.pop_front t.tent in
  if Deque.is_empty t.undo then apply_committed t w
  else ignore (Deque.pop_front t.undo);
  commit_one t w

(* A tentative write is stable when no origin can still produce a write that
   precedes it in timestamp order.  The strict comparison handles simultaneous
   accept times: origin [o] may yet produce a write at exactly [cover.(o)],
   which would precede [w] iff [o < w.origin]. *)
let stable ~cover (w : Write.t) =
  let ok = ref true in
  Array.iteri
    (fun o c ->
      if o <> w.id.origin then
        if c < w.accept_time || (c = w.accept_time && o < w.id.origin) then ok := false)
    cover;
  !ok

let commit_stable t ~cover =
  if Array.length cover <> t.nreplicas then
    invalid_arg "Wlog.commit_stable: cover arity mismatch";
  (* O(1) stability peeks: a write is stable iff its timestamp is strictly
     under the minimum cover over the {e other} origins — the global minimum,
     or the runner-up when the write's own origin is the unique argmin.  The
     per-origin scan would make committing O(origins) per write, which
     dominates large-replica runs (E22); exact ties (timestamp equal to the
     effective minimum) defer to the precise tie-breaking rule.  A plain
     loop: refs captured by a closure would box a float per assignment. *)
  let min1 = ref infinity and min2 = ref infinity in
  let argmin = ref (-1) and nmin = ref 0 in
  for o = 0 to Array.length cover - 1 do
    let c = cover.(o) in
    if c < !min1 then begin
      min2 := !min1;
      min1 := c;
      argmin := o;
      nmin := 1
    end
    else if c = !min1 then begin
      incr nmin;
      min2 := c
    end
    else if c < !min2 then min2 := c
  done;
  let min1 = !min1 and min2 = !min2 and argmin = !argmin and nmin = !nmin in
  let stable_fast (w : Write.t) =
    let m = if argmin = w.id.origin && nmin = 1 then min2 else min1 in
    if w.accept_time < m then true
    else if w.accept_time > m then false
    else stable ~cover w
  in
  (* Commit order equals timestamp order here, so the image and the suffix's
     undo journals beyond the frontier are untouched: committing is a front
     pop. *)
  let n = ref 0 in
  while
    (not (Deque.is_empty t.tent)) && stable_fast (Deque.peek_front t.tent)
  do
    commit_front t;
    incr n
  done;
  if !n > 0 then sanitize ~ctx:"wlog.commit_stable" t;
  !n

let commit_ids t ids =
  let n = ref 0 in
  let reordered = ref false in
  List.iter
    (fun id ->
      (* A known-but-not-resident id (its cell shed by a bounded log after
         snapshot adoption) is already part of the committed state — skip it
         rather than recommit. *)
      match
        if known t id && not (committed_mem t id) then resident_write t id
        else None
      with
      | None -> ()
      | Some w ->
        (* Commit order agrees with the image's order only when the write
           being committed is the oldest tentative one — then committing is a
           front pop.  Otherwise revert the applied suffix once, so the image
           is the committed one, and commit from the middle of the suffix
           onto it; the next read reapplies the suffix. *)
        if
          (not !reordered)
          && (not (Deque.is_empty t.tent))
          && Write.compare_id (Deque.peek_front t.tent).Write.id id = 0
        then commit_front t
        else begin
          if not !reordered then revert_to t 0;
          reordered := true;
          let pos = Deque.upper_bound t.tent ~cmp:Write.ts_compare w - 1 in
          assert (pos >= 0 && Write.compare_id (Deque.get t.tent pos).Write.id id = 0);
          ignore (Deque.remove t.tent pos);
          apply_committed t w;
          commit_one t w
        end;
        incr n)
    ids;
  if !reordered then t.nrollbacks <- t.nrollbacks + 1;
  if !n > 0 then sanitize ~ctx:"wlog.commit_ids" t;
  !n

let tentative_oweight t conit =
  match Hashtbl.find_opt t.tallies conit with Some r -> r.tent_ow | None -> 0.0

let tally_tent_ow r = r.tent_ow
let tally_value r = r.value

let tentative_max_oweight t =
  (* lint: allow hashtbl-fold — max over values, order-independent *)
  Hashtbl.fold (fun _ r acc -> Float.max r.tent_ow acc) t.tallies 0.0

let conit_value t conit =
  match Hashtbl.find_opt t.tallies conit with Some r -> r.value | None -> 0.0

let committed_conit_value t conit =
  match Hashtbl.find_opt t.tallies conit with
  | Some r -> committed_or_zero r
  | None -> 0.0

let outcome t id =
  force t;
  let p = cell t id in
  if p < 0 then None else get_outcome t.index.(id.origin) p

let final_outcome t (id : Write.id) =
  let p = cell t id in
  if p >= 0 && flag t.index.(id.origin) p land f_final <> 0 then
    get_outcome t.index.(id.origin) p
  else None
let rollbacks t = t.nrollbacks

(* ------------------------------------------------------------------ *)
(* Truncation and snapshots                                            *)

let retained t = Deque.length t.committed

let committed_vector t = t.committed_vec

(* The retained committed write [(o, seq)] leaves the log.  A bounded log also
   empties its cell: per-write state would otherwise grow forever, and
   nothing consults it for a dropped write — the primary scheme's csn
   pointer never re-offers a committed prefix, and stability commits only
   pop tentative writes.  An unbounded log keeps the outcome and flags. *)
let drop_retained t o seq =
  let oi = t.index.(o) in
  let p = pos oi seq in
  if t.bounded then clear_cell oi p else oi.writes.(p) <- no_write;
  t.nresident <- t.nresident - 1

let truncate t ~keep =
  let n = Deque.length t.committed in
  if n <= keep then 0
  else begin
    let drop = n - keep in
    for _ = 1 to drop do
      let k = Deque.pop_front t.committed in
      let o = origin_of t k and seq = seq_of t k in
      drop_retained t o seq;
      (* Under CSN commits the truncated write need not be its origin's
         oldest (commit order is the primary's, not seq order): lower-seq
         stragglers it jumps over stay resident until they are popped in
         turn, but become unservable the moment trunc_vec passes them. *)
      Version_vector.set t.trunc_vec o (max seq (Version_vector.get t.trunc_vec o))
    done;
    (* One shed per origin for the whole batch, so the columns shrink once,
       to fit what is left. *)
    if t.bounded then
      for o = 0 to t.nreplicas - 1 do
        shed_dead t o
      done;
    sanitize ~ctx:"wlog.truncate" t;
    drop
  end

let can_serve t v = Version_vector.dominates v t.trunc_vec

let snapshot t =
  {
    snap_db = committed_db t;
    snap_vector = Version_vector.copy t.committed_vec;
    snap_ncommitted = t.ncommitted;
    snap_values =
      (* lint: allow hashtbl-fold — sorted below for a deterministic wire image *)
      Hashtbl.fold
        (fun k r acc ->
          if Float.is_nan r.committed_value then acc else (k, r.committed_value) :: acc)
        t.tallies []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let install_snapshot t snap =
  if
    Version_vector.dominates t.committed_vec snap.snap_vector
    (* local state is already at or past the snapshot *)
  then false
  else if not (Version_vector.dominates snap.snap_vector t.committed_vec) then
    (* Incomparable committed states cannot happen under one commitment
       scheme; refuse rather than corrupt. *)
    false
  else begin
    let covered (w : Write.t) =
      Version_vector.covers snap.snap_vector ~origin:w.id.origin ~seq:w.id.seq
    in
    (* Adopt the snapshot as the committed state, with nothing of the suffix
       applied: the next read replays the kept suffix on top. *)
    t.image <- Db.copy snap.snap_db;
    Deque.clear t.undo;
    if Option.is_some t.audit_db then t.audit_db <- Some (Db.copy snap.snap_db);
    t.ncommitted <- snap.snap_ncommitted;
    for o = 0 to t.nreplicas - 1 do
      Version_vector.set t.committed_vec o (Version_vector.get snap.snap_vector o);
      (* Every write the snapshot folds in behaves as truncated locally: we
         cannot serve it write-by-write. *)
      Version_vector.set t.trunc_vec o
        (max (Version_vector.get t.trunc_vec o) (Version_vector.get snap.snap_vector o))
    done;
    (* Retained committed records are all covered by the snapshot; drop them. *)
    for i = 0 to Deque.length t.committed - 1 do
      let k = Deque.get t.committed i in
      drop_retained t (origin_of t k) (seq_of t k)
    done;
    Deque.clear t.committed;
    (* Tentative writes the snapshot covers were committed remotely — drop
       them (their final outcomes are not locally recoverable); keep the
       rest, which the next read replays. *)
    let kept = ref [] in
    Deque.iter
      (fun (w : Write.t) ->
        if covered w then begin
          let oi = t.index.(w.id.origin) and p = cell t w.id in
          oi.writes.(p) <- no_write;
          t.nresident <- t.nresident - 1;
          set_flag oi p (flag oi p lor f_committed)
        end
        else kept := w :: !kept)
      t.tent;
    Deque.clear t.tent;
    List.iter (Deque.push_back t.tent) (List.rev !kept);
    (* Rebuild the derived quantities: known vector, conit values, tentative
       oweights. *)
    Version_vector.merge_into t.vector snap.snap_vector;
    if t.bounded then
      for o = 0 to t.nreplicas - 1 do
        shed_dead t o;
        (* If the origin's index emptied, jump its base over the snapshot's
           covered range so the next registration does not pad dead cells for
           seqs this log never held. *)
        let oi = t.index.(o) in
        let cover = Version_vector.get snap.snap_vector o in
        if oi.len = 0 && oi.ibase < cover then oi.ibase <- cover
      done;
    (* lint: allow hashtbl-iter — per-entry reset, order-independent *)
    Hashtbl.iter
      (fun _ r ->
        r.committed_value <- Float.nan;
        r.tent_ow <- 0.0)
      t.tallies;
    List.iter (fun (k, v) -> (tally t k).committed_value <- v) snap.snap_values;
    (* lint: allow hashtbl-iter — per-entry reset, order-independent *)
    Hashtbl.iter (fun _ r -> r.value <- committed_or_zero r) t.tallies;
    Deque.iter
      (fun (w : Write.t) ->
        List.iter
          (fun { Write.conit; nweight; oweight } ->
            let r = tally t conit in
            r.value <- r.value +. nweight;
            r.tent_ow <- r.tent_ow +. oweight)
          w.affects)
      t.tent;
    (* Drop pending-buffer entries the snapshot already covers. *)
    let stale =
      (* lint: allow hashtbl-fold — collecting keys to remove, order-independent *)
      Hashtbl.fold
        (fun id _ acc ->
          if Version_vector.covers snap.snap_vector ~origin:id.Write.origin ~seq:id.Write.seq
          then id :: acc
          else acc)
        t.pending []
    in
    List.iter (Hashtbl.remove t.pending) stale;
    (* The snapshot's vector may have filled the gap in front of buffered
       writes: they are known now, and join the suffix (nothing of it is
       applied, so nothing is reverted). *)
    for o = 0 to t.nreplicas - 1 do
      ignore (drain_pending t o [] 0)
    done;
    t.nrollbacks <- t.nrollbacks + 1;
    sanitize ~ctx:"wlog.install_snapshot" t;
    true
  end
