type t = Off | Crash_replay | Oe_slack of float | Wrong_shard

let oe_prefix = "oe_slack:"

let to_string = function
  | Off -> "off"
  | Crash_replay -> "crash_replay"
  | Oe_slack s -> Printf.sprintf "%s%.17g" oe_prefix s
  | Wrong_shard -> "wrong_shard"

let of_string s =
  match s with
  | "off" -> Some Off
  | "crash_replay" -> Some Crash_replay
  | "wrong_shard" -> Some Wrong_shard
  | _ when String.starts_with ~prefix:oe_prefix s -> (
    let n = String.length oe_prefix in
    match float_of_string_opt (String.sub s n (String.length s - n)) with
    | Some x when Float.is_finite x && x > 0.0 -> Some (Oe_slack x)
    | _ -> None)
  | _ -> None
