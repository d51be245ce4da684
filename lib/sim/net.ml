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
  links : Links.t;
  link_traffic : (int * int, link_counters) Hashtbl.t;
  mutable messages : int;
  mutable bytes : int;
  mutable dropped_loss : int;
  mutable dropped_cut : int;
  mutable max_message : int;
}

let create engine topo ?jitter ?loss () =
  let links = Links.create () in
  Links.set_loss links loss;
  {
    engine;
    topo;
    jitter;
    links;
    link_traffic = Hashtbl.create 7;
    messages = 0;
    bytes = 0;
    dropped_loss = 0;
    dropped_cut = 0;
    max_message = 0;
  }

let links t = t.links

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
  let df = Links.delay_factor t.links and bf = Links.bandwidth_factor t.links in
  if df = 1.0 && bf = 1.0 then
    (* Fast path: bit-identical to the historical behaviour when no fault
       generator has touched the factors. *)
    Topology.delay t.topo ~src ~dst ~size
  else if src = dst then 0.0
  else
    (Topology.latency t.topo src dst
    +. float_of_int size /. (t.topo.Topology.bandwidth *. bf))
    *. df

let deliver_at t ~dst ~delay deliver =
  Engine.schedule t.engine ~label:{ Engine.actor = dst; tag = "deliver" } ~delay deliver

let send t ~src ~dst ~size deliver =
  match Links.fate t.links ~src ~dst with
  | Links.Cut -> record_drop t src dst ~cut:true
  | Links.Lost -> record_drop t src dst ~cut:false
  | (Links.Once | Links.Twice _) as fate -> (
    record_sent t src dst ~size;
    let base = base_delay t ~src ~dst ~size in
    let delay =
      match t.jitter with
      | None -> base
      | Some (rng, frac) -> base +. Tact_util.Prng.float rng (frac *. base)
    in
    deliver_at t ~dst ~delay deliver;
    match fate with
    | Links.Twice extra ->
      (* The copy takes a distinct (longer) path, so the receiver sees the
         payload twice, out of order with other traffic.  Counted as real
         traffic on the link. *)
      record_sent t src dst ~size;
      deliver_at t ~dst ~delay:((delay *. (1.0 +. extra)) +. 1e-9) deliver
    | _ -> ())

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
