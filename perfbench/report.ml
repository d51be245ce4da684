(* One run's result: the metrics it measured, the checks it made, and the
   final JSON line the benchmark contract asks for. *)

type metric = { name : string; value : float; unit : string }

type t = {
  mutable metrics : metric list;  (* reversed *)
  mutable failures : string list;  (* failed correctness checks, reversed *)
  mutable attempted : int;
  mutable failed : int;
}

let create () = { metrics = []; failures = []; attempted = 0; failed = 0 }

let add t name unit value = t.metrics <- { name; value; unit } :: t.metrics

let check t ok fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "check %-48s %s\n" msg (if ok then "ok" else "FAILED");
      if not ok then t.failures <- msg :: t.failures)
    fmt

let info fmt = Printf.printf (fmt ^^ "\n")

(* A latency histogram's summary line, then its median and p99 as metrics. *)
let latency t ~prefix h =
  info "histogram %-20s %s (ms)" prefix (Hist.summary h);
  add t (prefix ^ "_p50_ms") "ms" (Hist.quantile h 0.5);
  add t (prefix ^ "_p99_ms") "ms" (Hist.quantile h 0.99)

let find t name =
  match List.find_opt (fun m -> m.name = name) t.metrics with
  | Some m -> m.value
  | None -> nan

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print every metric as a report line, then the JSON object with the
   [select]ed (name, unit) metrics, in that order. *)
let emit t ~select =
  let all = List.rev t.metrics in
  List.iter (fun m -> info "metric %-32s %14.6g %s" m.name m.value m.unit) all;
  let chosen =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun m -> m.name = name) all with
        | Some m when m.unit = unit && Float.is_finite m.value -> m
        | Some m ->
          check t false "metric %s reads %g %s, want a finite value in %s" name m.value
            m.unit unit;
          { m with value = 0.0; unit }
        | None -> failwith ("perfbench: metric not measured: " ^ name))
      select
  in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit)
      chosen
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (t.failures = []) t.attempted t.failed (String.concat ", " fields);
  flush stdout

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* How many times a run sets its system up; set-up time is their median. *)
let setups = 5

let setup_time t samples =
  info "setup_s samples %s" (String.concat " " (List.map (Printf.sprintf "%.4f") samples));
  add t "setup_s" "s" (median samples)

(* A per-part series' median, with the series itself on a report line. *)
let median_of_parts name parts =
  info "parts %-24s %s" name (String.concat " " (List.map (Printf.sprintf "%.2f") (List.rev parts)));
  median parts
