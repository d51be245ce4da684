type severity = Error | Warning | Info

type t = {
  code : string;
  severity : severity;
  subject : string;
  message : string;
  hint : string;
}

let make ~code ~severity ~subject ~message ~hint =
  { code; severity; subject; message; hint }

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let compare a b =
  match Int.compare (severity_rank a.severity) (severity_rank b.severity) with
  | 0 -> (
    match String.compare a.code b.code with
    | 0 -> String.compare a.subject b.subject
    | c -> c)
  | c -> c

let sort ds = List.sort compare ds

let to_string d =
  Printf.sprintf "%s %s [%s]: %s (hint: %s)" d.code
    (severity_to_string d.severity)
    d.subject d.message d.hint
