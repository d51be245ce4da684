(* Process-level resource readings. *)

(* User + system CPU seconds of this process (getrusage resolution). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set size (VmHWM) of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let now = Unix.gettimeofday

(* Run [f] in a forked child and return the float it computes.  Used to
   repeat a set-up without letting its memory count towards this process's
   peak RSS. *)
let in_child (f : unit -> float) =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let v = try f () with _ -> nan in
    let s = Printf.sprintf "%h\n" v in
    ignore (Unix.write_substring w s 0 (String.length s));
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v = try float_of_string (input_line ic) with _ -> nan in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    v
