(* In-memory span log for traced runs: one row per span, keyed by the id of
   the access it belongs to, so every span of one access shares an
   identifier.  Rows are kept unformatted and written out as TSV when the
   run ends. *)

type row = { id : int; name : string; clock : string; start : float; stop : float }

type t = { mutable rows : row list; mutable n : int }

let cap = 200_000
let create () = { rows = []; n = 0 }

(* [clock] names the timebase: "virtual" (simulated seconds) or "wall". *)
let add t ~id ~name ~clock ~start ~stop =
  if t.n < cap then begin
    t.n <- t.n + 1;
    t.rows <- { id; name; clock; start; stop } :: t.rows
  end

let write t ~path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out path in
  output_string oc "access_id\tspan\tclock\tstart_s\tend_s\n";
  List.iter
    (fun r -> Printf.fprintf oc "%d\t%s\t%s\t%.9f\t%.9f\n" r.id r.name r.clock r.start r.stop)
    (List.rev t.rows);
  close_out oc;
  Report.info "spans %d rows -> %s" t.n path
