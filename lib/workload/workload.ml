open Tact_sim

let poisson engine ~rng ~rate ~until f =
  assert (rate > 0.0);
  let rec next () =
    let gap = Tact_util.Prng.exponential rng ~mean:(1.0 /. rate) in
    let at = Engine.now engine +. gap in
    if at <= until then
      Engine.schedule engine ~delay:gap (fun () ->
          f ();
          next ())
  in
  next ()

let staggered engine ~start ~gap ~count f =
  let base = Engine.now engine in
  for i = 0 to count - 1 do
    Engine.schedule engine
      ~delay:(start -. base +. (gap *. float_of_int i))
      (fun () -> f i)
  done
