let even_share ~bound ~n =
  assert (n > 1);
  bound /. float_of_int (n - 1)

let pushes_per_write ~bound ~n ~weight =
  if bound = infinity then 0.0
  else begin
    let share = even_share ~bound ~n in
    let per_peer = if share <= 0.0 then 1.0 else Float.min 1.0 (weight /. share) in
    float_of_int (n - 1) *. per_peer
  end

let pull_round_msgs ~n = 2 * (n - 1)

let pull_read_latency ~n ~one_way =
  ignore n;
  2.0 *. one_way

let conflict_probability ~rel_ne = Float.max 0.0 (Float.min 1.0 rel_ne)
