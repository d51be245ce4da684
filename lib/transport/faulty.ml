type stats = {
  mutable f_sent : int;
  mutable f_dropped_cut : int;
  mutable f_dropped_loss : int;
  mutable f_duplicated : int;
  mutable f_delayed : int;
}

type t = {
  self : int;
  n : int;
  nominal_delay : float;
  schedule : delay:float -> (unit -> unit) -> unit;
  real_send : dst:int -> string -> (unit, Tact_store.Transport.error) result;
  (* The whole system's link state: only [self -> dst] links are consulted
     on the send path, so a schedule written for the whole system can be
     installed verbatim on every process. *)
  links : Tact_sim.Links.t;
  stats : stats;
}

let create ~self ~n ?(nominal_delay = 0.0) ~schedule ~send () =
  {
    self;
    n;
    nominal_delay;
    schedule;
    real_send = send;
    links = Tact_sim.Links.create ();
    stats =
      { f_sent = 0; f_dropped_cut = 0; f_dropped_loss = 0; f_duplicated = 0; f_delayed = 0 };
  }

let stats t = t.stats
let links t = t.links

let delay t = t.nominal_delay *. Tact_sim.Links.delay_factor t.links

let forward t ~dst payload =
  t.stats.f_sent <- t.stats.f_sent + 1;
  let delay = delay t in
  if delay > 0.0 then begin
    t.stats.f_delayed <- t.stats.f_delayed + 1;
    t.schedule ~delay (fun () -> ignore (t.real_send ~dst payload));
    Ok ()
  end
  else t.real_send ~dst payload

let send t ~dst payload =
  if dst < 0 || dst >= t.n then
    Error (Tact_store.Transport.Unreachable (Printf.sprintf "faulty: bad dst %d" dst))
  else
    match Tact_sim.Links.fate t.links ~src:t.self ~dst with
    | Tact_sim.Links.Cut ->
      t.stats.f_dropped_cut <- t.stats.f_dropped_cut + 1;
      Ok ()
    | Tact_sim.Links.Lost ->
      t.stats.f_dropped_loss <- t.stats.f_dropped_loss + 1;
      Ok ()
    | Tact_sim.Links.Once -> forward t ~dst payload
    | Tact_sim.Links.Twice extra ->
      let r = forward t ~dst payload in
      t.stats.f_duplicated <- t.stats.f_duplicated + 1;
      (* The copy is strictly later than the original, as in Net: defer it
         through the timer even when the original went out synchronously. *)
      t.schedule
        ~delay:((delay t *. (1.0 +. extra)) +. 0.001)
        (fun () -> ignore (t.real_send ~dst payload));
      r
