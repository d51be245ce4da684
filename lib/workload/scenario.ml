open Tact_store
open Tact_replica

type event = { time : float; action : System.t -> unit }

let at time action = { time; action }

let write ~replica ~conit op sys =
  Replica.submit_write (System.replica sys replica) ~deps:[]
    ~affects:[ { Write.conit; nweight = 1.0; oweight = 1.0 } ]
    ~op ~k:ignore

let read ~replica ~deps ~key results sys =
  Replica.submit_read (System.replica sys replica) ~deps
    ~f:(fun db -> Db.get db key)
    ~k:(fun v -> results := !results @ [ (System.now sys, v) ])

let strong_read ~replica ~conit ~key results sys =
  read ~replica ~deps:[ (conit, Tact_core.Bounds.strong) ] ~key results sys

let partition a b sys = Tact_sim.Links.partition (Tact_sim.Net.links (System.net sys)) a b
let heal sys = Tact_sim.Links.heal (Tact_sim.Net.links (System.net sys))
let crash i sys = Replica.crash (System.replica sys i)
let recover i sys = Replica.recover (System.replica sys i)

let run ?until sys events =
  let engine = System.engine sys in
  List.iter
    (fun e ->
      Tact_sim.Engine.schedule engine
        ~delay:(Float.max 0.0 (e.time -. Tact_sim.Engine.now engine))
        (fun () -> e.action sys))
    events;
  System.run ?until sys
