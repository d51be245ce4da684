type knob = (Tact_util.Prng.t * float) option

type fate = Cut | Lost | Once | Twice of float

type t = {
  cut : (int * int, unit) Hashtbl.t;
  mutable loss : knob;
  link_loss : (int * int, Tact_util.Prng.t * float) Hashtbl.t;
  mutable duplication : knob;
  mutable delay_factor : float;
  mutable bandwidth_factor : float;
}

let create () =
  {
    cut = Hashtbl.create 7;
    loss = None;
    link_loss = Hashtbl.create 7;
    duplication = None;
    delay_factor = 1.0;
    bandwidth_factor = 1.0;
  }

let draw = function
  | None -> false
  | Some (rng, rate) -> Tact_util.Prng.float rng 1.0 < rate

(* The tables are empty on every link of an undisturbed run; testing that
   first skips the key allocation and the hash on each message. *)
let partitioned t a b = Hashtbl.length t.cut > 0 && Hashtbl.mem t.cut (a, b)

let link_knob t src dst =
  if Hashtbl.length t.link_loss = 0 then None
  else Hashtbl.find_opt t.link_loss (src, dst)

let fate t ~src ~dst =
  if partitioned t src dst then Cut
  else
    (* Both loss knobs draw, so each stream advances once per message
       whatever the other decides. *)
    let global = draw t.loss in
    let link = draw (link_knob t src dst) in
    if global || link then Lost
    else
      match t.duplication with
      | Some (rng, rate) when Tact_util.Prng.float rng 1.0 < rate ->
        Twice (Tact_util.Prng.float rng 1.0)
      | _ -> Once

let cut_pairs ga gb f =
  List.iter (fun a -> List.iter (fun b -> if a <> b then f a b) gb) ga

let partition_oneway t ga gb = cut_pairs ga gb (fun a b -> Hashtbl.replace t.cut (a, b) ())

let partition t ga gb =
  partition_oneway t ga gb;
  partition_oneway t gb ga

let heal_between t ga gb =
  cut_pairs ga gb (fun a b ->
      Hashtbl.remove t.cut (a, b);
      Hashtbl.remove t.cut (b, a))

let heal t = Hashtbl.reset t.cut

let set_loss t k = t.loss <- k

let set_link_loss t ~src ~dst = function
  | Some k -> Hashtbl.replace t.link_loss (src, dst) k
  | None -> Hashtbl.remove t.link_loss (src, dst)

let set_duplication t k = t.duplication <- k
let set_delay_factor t f = t.delay_factor <- f
let set_bandwidth_factor t f = t.bandwidth_factor <- f
let delay_factor t = t.delay_factor
let bandwidth_factor t = t.bandwidth_factor

let clear t =
  heal t;
  t.loss <- None;
  Hashtbl.reset t.link_loss;
  t.duplication <- None;
  t.delay_factor <- 1.0;
  t.bandwidth_factor <- 1.0
