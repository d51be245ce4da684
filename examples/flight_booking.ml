(* Airline reservation (Section 4.1): bounding the rate of surprise aborts by
   bounding relative numerical error on the available-seat conits.

   Two configurations book out the same small plane; the bounded one keeps
   replicas' seat views within 10% of truth, so almost no reservation that
   looked fine turns out to have lost its seat at commit.

   Run with: dune exec examples/flight_booking.exe *)

let book ~label ~ne_rel =
  let r =
    Tact_apps.Airline.run ~seed:404 ~n:4 ~flights:1 ~seats:120 ~rate:1.5
      ~duration:50.0 ~ne_rel ()
  in
  Printf.printf
    "%-22s attempts %3d | surprise aborts %2d (%.1f%%) | measured rel-NE %.3f | %d msgs\n"
    label r.attempts r.final_conflicts
    (100.0 *. r.conflict_rate)
    r.mean_rel_ne r.messages

let () =
  Printf.printf "booking a 120-seat flight from 4 replicas for 50s...\n";
  book ~label:"unbounded views:" ~ne_rel:infinity;
  book ~label:"rel-NE <= 0.10:" ~ne_rel:0.10;
  print_endline
    "(the paper: P(conflict) ~= relative numerical error, so bounding one\n\
     bounds the other — Section 4.1)"
