type stats = {
  messages : int;
  bytes : int;
  dropped : int;
  dropped_loss : int;
  dropped_cut : int;
  max_message : int;
}

let zero_stats =
  { messages = 0; bytes = 0; dropped = 0; dropped_loss = 0; dropped_cut = 0;
    max_message = 0 }

(* Per directed link counters, including drops (satellite: traffic_where used
   to read [dropped = 0] because drops were only counted globally). *)
type link_counters = {
  mutable lc_messages : int;
  mutable lc_bytes : int;
  mutable lc_dropped : int;
}

type t = {
  engine : Engine.t;
  topo : Topology.t;
  jitter : (Tact_util.Prng.t * float) option;
  mutable loss : (Tact_util.Prng.t * float) option;
  queued : bool;
  link_free : (int * int, float) Hashtbl.t;  (* per directed link: time the
                                                transmitter frees up *)
  link_traffic : (int * int, link_counters) Hashtbl.t;
  cut : (int * int, unit) Hashtbl.t;
  link_loss : (int * int, Tact_util.Prng.t * float) Hashtbl.t;
  mutable duplication : (Tact_util.Prng.t * float) option;
  mutable delay_factor : float;
  mutable bandwidth_factor : float;
  mutable messages : int;
  mutable bytes : int;
  mutable dropped_loss : int;
  mutable dropped_cut : int;
  mutable max_message : int;
}

let create engine topo ?jitter ?loss ?(queued = false) () =
  {
    engine;
    topo;
    jitter;
    loss;
    queued;
    link_free = Hashtbl.create 7;
    link_traffic = Hashtbl.create 7;
    cut = Hashtbl.create 7;
    link_loss = Hashtbl.create 7;
    duplication = None;
    delay_factor = 1.0;
    bandwidth_factor = 1.0;
    messages = 0;
    bytes = 0;
    dropped_loss = 0;
    dropped_cut = 0;
    max_message = 0;
  }

let size t = t.topo.Topology.n

let partitioned t a b = Hashtbl.mem t.cut (a, b)

let set_loss t loss = t.loss <- loss

let set_link_loss t ~src ~dst loss =
  match loss with
  | None -> Hashtbl.remove t.link_loss (src, dst)
  | Some l -> Hashtbl.replace t.link_loss (src, dst) l

let set_duplication t dup = t.duplication <- dup

let set_delay_factor t f = t.delay_factor <- f
let set_bandwidth_factor t f = t.bandwidth_factor <- f

let draw = function
  | None -> false
  | Some (rng, rate) -> Tact_util.Prng.float rng 1.0 < rate

let lossy t ~src ~dst =
  (* Evaluate both knobs unconditionally so each rng stream advances exactly
     once per message regardless of the other knob's draw. *)
  let global = draw t.loss in
  let per_link = draw (Hashtbl.find_opt t.link_loss (src, dst)) in
  global || per_link

let counters t src dst =
  match Hashtbl.find_opt t.link_traffic (src, dst) with
  | Some c -> c
  | None ->
    let c = { lc_messages = 0; lc_bytes = 0; lc_dropped = 0 } in
    Hashtbl.replace t.link_traffic (src, dst) c;
    c

let record_drop t src dst ~cut =
  let c = counters t src dst in
  c.lc_dropped <- c.lc_dropped + 1;
  if cut then t.dropped_cut <- t.dropped_cut + 1
  else t.dropped_loss <- t.dropped_loss + 1

let record_sent t src dst ~size =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + size;
  if size > t.max_message then t.max_message <- size;
  let c = counters t src dst in
  c.lc_messages <- c.lc_messages + 1;
  c.lc_bytes <- c.lc_bytes + size

let base_delay t ~src ~dst ~size =
  if t.queued && src <> dst then begin
    (* FIFO link: wait for earlier messages to finish serialising. *)
    let now = Engine.now t.engine in
    let free =
      match Hashtbl.find_opt t.link_free (src, dst) with
      | Some f -> Float.max f now
      | None -> now
    in
    let bw = t.topo.Topology.bandwidth *. t.bandwidth_factor in
    let ser = float_of_int size /. bw in
    Hashtbl.replace t.link_free (src, dst) (free +. ser);
    (free -. now) +. ser +. (Topology.latency t.topo src dst *. t.delay_factor)
  end
  else if t.delay_factor = 1.0 && t.bandwidth_factor = 1.0 then
    (* Fast path: bit-identical to the historical behaviour when no fault
       generator has touched the factors. *)
    Topology.delay t.topo ~src ~dst ~size
  else if src = dst then 0.0
  else
    (Topology.latency t.topo src dst
    +. float_of_int size /. (t.topo.Topology.bandwidth *. t.bandwidth_factor))
    *. t.delay_factor

let send t ~src ~dst ~size deliver =
  if partitioned t src dst then record_drop t src dst ~cut:true
  else if lossy t ~src ~dst then record_drop t src dst ~cut:false
  else begin
    record_sent t src dst ~size;
    let base = base_delay t ~src ~dst ~size in
    let delay =
      match t.jitter with
      | None -> base
      | Some (rng, frac) -> base +. Tact_util.Prng.float rng (frac *. base)
    in
    Engine.schedule t.engine
      ~label:{ Engine.actor = dst; tag = "deliver" }
      ~delay deliver;
    match t.duplication with
    | Some (rng, rate) when Tact_util.Prng.float rng 1.0 < rate ->
      (* Duplicate delivery: the copy takes a distinct (longer) path so the
         receiver sees the same payload twice, out of order with other
         traffic.  Counted as real traffic on the link. *)
      record_sent t src dst ~size;
      let extra = Tact_util.Prng.float rng 1.0 in
      let dup_delay = (delay *. (1.0 +. extra)) +. 1e-9 in
      Engine.schedule t.engine
        ~label:{ Engine.actor = dst; tag = "deliver" }
        ~delay:dup_delay deliver
    | _ -> ()
  end

let partition t group_a group_b =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then begin
            Hashtbl.replace t.cut (a, b) ();
            Hashtbl.replace t.cut (b, a) ()
          end)
        group_b)
    group_a

let partition_oneway t group_a group_b =
  List.iter
    (fun a ->
      List.iter
        (fun b -> if a <> b then Hashtbl.replace t.cut (a, b) ())
        group_b)
    group_a

let heal_between t group_a group_b =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Hashtbl.remove t.cut (a, b);
          Hashtbl.remove t.cut (b, a))
        group_b)
    group_a

let heal t =
  let all = List.init (size t) Fun.id in
  heal_between t all all

let stats t =
  {
    messages = t.messages;
    bytes = t.bytes;
    dropped = t.dropped_loss + t.dropped_cut;
    dropped_loss = t.dropped_loss;
    dropped_cut = t.dropped_cut;
    max_message = t.max_message;
  }

let traffic_where t pred =
  (* lint: allow hashtbl-fold — commutative sum over links *)
  Hashtbl.fold
    (fun (src, dst) c (acc : stats) ->
      if pred ~src ~dst then
        {
          acc with
          messages = acc.messages + c.lc_messages;
          bytes = acc.bytes + c.lc_bytes;
          dropped = acc.dropped + c.lc_dropped;
        }
      else acc)
    t.link_traffic zero_stats

let reset_stats t =
  t.messages <- 0;
  t.bytes <- 0;
  t.dropped_loss <- 0;
  t.dropped_cut <- 0;
  t.max_message <- 0;
  Hashtbl.reset t.link_traffic
