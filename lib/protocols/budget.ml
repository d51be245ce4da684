type policy = Even | Proportional of float array | Adaptive

let proportional_share ~bound ~n ~self ~receiver rates =
  let total = ref 0.0 in
  Array.iteri (fun j r -> if j <> receiver then total := !total +. r) rates;
  if !total <= 0.0 then bound /. float_of_int (n - 1)
  else bound *. rates.(self) /. !total

let share policy ~bound ~n ~self ~receiver ~rates =
  assert (n > 1 && self <> receiver);
  if Float.equal bound infinity then infinity
  else
    match policy with
    | Even -> bound /. float_of_int (n - 1)
    | Proportional static -> proportional_share ~bound ~n ~self ~receiver static
    | Adaptive -> proportional_share ~bound ~n ~self ~receiver rates

let malformed ~n = function
  | Even | Adaptive -> false
  | Proportional rates ->
    Array.length rates <> n
    || Array.exists (fun r -> r < 0.0 || Float.is_nan r) rates
    || (n > 1 && Array.for_all (fun r -> Float.equal r 0.0) rates)

let policy_name = function
  | Even -> "even"
  | Proportional _ -> "proportional"
  | Adaptive -> "adaptive"
