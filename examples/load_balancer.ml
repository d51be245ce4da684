(* QoS load balancing (the paper's third sample application): how accurate do
   load views need to be?  The same request stream is balanced under three
   NE bounds on the per-server load conits.

   Run with: dune exec examples/load_balancer.exe *)

let balance ~label ~ne_bound =
  let r =
    Tact_apps.Qos.run ~seed:99 ~n:4 ~rate:4.0 ~service_time:2.0 ~duration:40.0
      ~ne_bound ()
  in
  Printf.printf
    "%-18s %4d requests | %5.1f%% misrouted | imbalance %.2f | %5d msgs\n"
    label r.requests
    (100.0 *. r.misroute_rate)
    r.mean_imbalance r.messages

let () =
  Printf.printf "balancing requests across 4 replicated web servers for 40s...\n";
  balance ~label:"exact views:" ~ne_bound:1.0;
  balance ~label:"NE <= 4:" ~ne_bound:4.0;
  balance ~label:"uncoordinated:" ~ne_bound:infinity;
  print_endline
    "(tighter load-view bounds buy routing quality with dissemination traffic)"
