type links =
  | Uniform of float
  | Clustered of { per_cluster : int; local : float; wan : float }
  | Star of float
  | Matrix of float array array
  | Sub of { base : links; members : int array }

type t = { n : int; links : links; bandwidth : float }

let uniform ~n ~latency ~bandwidth = { n; links = Uniform latency; bandwidth }

let clustered ~clusters ~per_cluster ~local ~wan ~bandwidth =
  {
    n = clusters * per_cluster;
    links = Clustered { per_cluster; local; wan };
    bandwidth;
  }

let star ~n ~spoke ~bandwidth = { n; links = Star spoke; bandwidth }

let from_matrix ~latency ~bandwidth =
  let n = Array.length latency in
  Array.iter (fun row -> assert (Array.length row = n)) latency;
  { n; links = Matrix latency; bandwidth }

let sub t members =
  {
    n = Array.length members;
    links = Sub { base = t.links; members };
    bandwidth = t.bandwidth;
  }

let rec link_latency links a b =
  match links with
  | Uniform l -> if a = b then 0.0 else l
  | Clustered { per_cluster; local; wan } ->
    if a = b then 0.0
    else if a / per_cluster = b / per_cluster then local
    else wan
  | Star spoke ->
    if a = b then 0.0 else if a = 0 || b = 0 then spoke else 2.0 *. spoke
  | Matrix m -> m.(a).(b)
  | Sub { base; members } -> link_latency base members.(a) members.(b)

let latency t a b = link_latency t.links a b

let delay t ~src ~dst ~size =
  if src = dst then 0.0
  else latency t src dst +. (float_of_int size /. t.bandwidth)
