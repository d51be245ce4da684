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

type t = {
  engine : Engine.t;
  topo : Topology.t;
  jitter : (Tact_util.Prng.t * float) option;
  links : Links.t;
  (* Per directed link counters, including drops, in flat [n * n] arrays
     indexed [src * n + dst]. *)
  lc_messages : int array;
  lc_bytes : int array;
  lc_dropped : int array;
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
    lc_messages = Array.make (topo.Topology.n * topo.Topology.n) 0;
    lc_bytes = Array.make (topo.Topology.n * topo.Topology.n) 0;
    lc_dropped = Array.make (topo.Topology.n * topo.Topology.n) 0;
    messages = 0;
    bytes = 0;
    dropped_loss = 0;
    dropped_cut = 0;
    max_message = 0;
  }

let links t = t.links

let link t src dst = (src * t.topo.Topology.n) + dst

let record_drop t src dst ~cut =
  let l = link t src dst in
  t.lc_dropped.(l) <- t.lc_dropped.(l) + 1;
  if cut then t.dropped_cut <- t.dropped_cut + 1
  else t.dropped_loss <- t.dropped_loss + 1

let record_sent t src dst ~size =
  t.messages <- t.messages + 1;
  t.bytes <- t.bytes + size;
  if size > t.max_message then t.max_message <- size;
  let l = link t src dst in
  t.lc_messages.(l) <- t.lc_messages.(l) + 1;
  t.lc_bytes.(l) <- t.lc_bytes.(l) + size

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

(* Sums over the links that carried or dropped something; [pred] sees no
   other link. *)
let traffic_where t pred =
  let n = t.topo.Topology.n in
  let acc = ref zero_stats in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      let l = link t src dst in
      if (t.lc_messages.(l) > 0 || t.lc_dropped.(l) > 0) && pred ~src ~dst then
        acc :=
          {
            !acc with
            messages = !acc.messages + t.lc_messages.(l);
            bytes = !acc.bytes + t.lc_bytes.(l);
            dropped = !acc.dropped + t.lc_dropped.(l);
          }
    done
  done;
  !acc

let reset_stats t =
  t.messages <- 0;
  t.bytes <- 0;
  t.dropped_loss <- 0;
  t.dropped_cut <- 0;
  t.max_message <- 0;
  List.iter (fun a -> Array.fill a 0 (Array.length a) 0) [ t.lc_messages; t.lc_bytes; t.lc_dropped ]
