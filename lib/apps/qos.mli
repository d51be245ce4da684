(** QoS load balancing for replicated web servers — the paper's third sample
    application.

    Every replica hosts a web server and a load balancer.  A request entering
    at replica [i] is routed to the server whose {e observed} load is lowest;
    the routing decision writes +1 to the chosen server's load conit and −1
    when the request completes.  Consistency is the accuracy of the load
    view: looser numerical-error bounds mean cheaper load dissemination but
    worse routing (requests sent to servers that are not actually least
    loaded), which experiment E7 quantifies. *)

type result = {
  requests : int;
  misroutes : int;  (** routed to a server that was not truly least-loaded *)
  misroute_rate : float;
  mean_imbalance : float;  (** time-averaged (max-min) true load *)
  mean_load_error : float;  (** |observed - true| of the chosen server's load *)
  messages : int;
  bytes : int;
  violations : int;
}

val run :
  ?seed:int ->
  ?n:int ->
  ?rate:float ->  (* request arrivals/s per replica *)
  ?service_time:float ->  (* mean request service time, seconds *)
  ?duration:float ->
  ?latency:float ->
  ?ne_bound:float ->  (* declared absolute NE bound per load conit *)
  unit ->
  result
