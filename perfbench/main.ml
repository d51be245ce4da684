(* The repo benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (see sim.ml and served.ml):
     sim-wan      simulated E17 WAN, bounded reads and budgeted writes
     sim-ring     simulated E22 gossip ring, batched sync, bounded log
     served-wan   three forked replica processes, 20 ms injected delay,
                  open-loop weak writes and strict-NE reads
     served-weak  the same fleet without delay, weak writes and weak reads

   Every run sets the system up five times and reports the median set-up
   time, measures one window (S seconds of wall time on served workloads, a
   fixed amount of simulated work sized to about S seconds on simulated
   ones), checks the outputs outside the window, prints one report line per metric and ends with one JSON line:
   with --trace 0 the end-to-end metrics every workload shares, with
   --trace 1 the per-layer metrics of a second, traced window (plus the
   workload-specific end-to-end metrics of the untraced one, named e2e.<metric>).
   A failed check makes the run exit 1. *)

(* (name, unit, better) — mirrored in BENCHMARK.json. *)
let end_to_end =
  [ ("setup_s", "s", "lower"); ("cpu_us_per_op", "us/op", "lower");
    ("peak_rss_mb", "MB", "lower") ]

let per_layer =
  [
    ("gen.late_p99_ms", "ms", "lower"); ("gen.unmatched", "count", "lower");
    ("gen.cpu_us_per_op", "us/op", "lower");
    ("sim.events_per_op", "1/op", "lower"); ("sim.max_msg_bytes", "B", "lower");
    ("replica.submit_us_p50", "us", "lower"); ("replica.submit_us_p99", "us", "lower");
    ("replica.deliver_us_p50", "us", "lower"); ("replica.deliver_us_p99", "us", "lower");
    ("replica.blocked_frac", "ratio", "lower"); ("replica.pending_max", "count", "lower");
    ("replica.timeouts", "count", "lower"); ("replica.records", "count", "lower");
    ("protocols.budget_pushes_per_op", "1/op", "lower");
    ("protocols.ne_pulls_per_op", "1/op", "lower");
    ("protocols.oe_pulls_per_op", "1/op", "lower");
    ("protocols.st_pulls_per_op", "1/op", "lower");
    ("protocols.gossips_per_op", "1/op", "lower");
    ("wlog.rollbacks_per_op", "1/op", "lower"); ("wlog.tentative_max", "count", "lower");
    ("wlog.tentative_growth", "ratio", "lower"); ("wlog.retained_max", "count", "lower");
    ("wlog.snapshots_per_op", "1/op", "lower");
    ("codec.batches_per_op", "1/op", "lower"); ("codec.bytes_per_batch", "B", "higher");
    ("codec.encode_ns_per_byte", "ns/B", "lower"); ("codec.decode_ns_per_byte", "ns/B", "lower");
    ("transport.frames_per_op", "1/op", "lower"); ("transport.bytes_per_op", "B/op", "lower");
    ("transport.delayed_per_op", "1/op", "lower"); ("transport.busy_frac", "ratio", "lower");
    ("transport.parked_frames", "count", "lower"); ("transport.reconnects", "count", "lower");
    ("transport.poisoned", "count", "lower");
    ("gc.minor_words_per_op", "words/op", "lower"); ("gc.major_collections", "count", "lower");
    ("gc.top_heap_mb", "MB", "lower");
    ("trace.overhead_ops_per_s", "1/s", "higher");
    ("trace.overhead_cpu_us_per_op", "us/op", "lower");
    ("e2e.ops_per_s", "1/s", "higher"); ("e2e.write_p50_ms", "ms", "lower");
    ("e2e.write_p99_ms", "ms", "lower"); ("e2e.read_p50_ms", "ms", "lower");
    ("e2e.read_p99_ms", "ms", "lower"); ("e2e.msgs_per_op", "1/op", "lower");
    ("e2e.bytes_per_op", "B/op", "lower"); ("e2e.failed_frac", "ratio", "lower");
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload sim-wan|sim-ring|served-wan|served-weak \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let rep = Report.create () in
  Report.info "# perfbench workload=%s seed=%d seconds=%g trace=%b cores=%d ocaml=%s"
    !workload !seed !seconds !trace (Domain.recommended_domain_count ()) Sys.ocaml_version;
  let seed = !seed and seconds = !seconds and trace = !trace in
  (match !workload with
  | "sim-wan" -> Sim.run rep ~shape:Sim.Wan ~seed ~seconds ~trace
  | "sim-ring" -> Sim.run rep ~shape:Sim.Ring ~seed ~seconds ~trace
  | "served-wan" -> Served.run rep ~mix:Served.Wan ~seed ~seconds ~trace
  | "served-weak" -> Served.run rep ~mix:Served.Weak ~seed ~seconds ~trace
  | _ -> usage ());
  let select = if trace then per_layer else end_to_end in
  (* A per-layer metric a workload has no such layer for reads 0. *)
  List.iter
    (fun (name, unit, _) ->
      if Float.is_nan (Report.find rep name) then begin
        Report.info "n/a %s on this workload" name;
        Report.add rep name unit 0.0
      end)
    select;
  Report.emit rep ~select:(List.map (fun (name, unit, _) -> (name, unit)) select);
  if rep.Report.failures <> [] then exit 1
