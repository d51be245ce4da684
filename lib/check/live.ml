open Tact_util
open Tact_transport
module Replica = Tact_replica.Replica

let knob rate salt = if rate > 0.0 then Some (Prng.create ~seed:salt, rate) else None

let apply srv (action : Fault.action) =
  let fy = Serve.faulty srv in
  let me = Serve.id srv in
  match action with
  | Fault.Cut (ga, gb) -> Faulty.partition fy ga gb
  | Fault.Cut_oneway (ga, gb) -> Faulty.partition_oneway fy ga gb
  | Fault.Heal_between (ga, gb) -> Faulty.heal_between fy ga gb
  | Fault.Heal_all -> Faulty.heal fy
  | Fault.Crash i -> if i = me then Replica.crash (Serve.replica srv)
  | Fault.Recover i -> if i = me then Replica.recover (Serve.replica srv)
  | Fault.Recover_all ->
    if not (Replica.is_up (Serve.replica srv)) then Replica.recover (Serve.replica srv)
  | Fault.Global_loss { rate; salt } -> Faulty.set_loss fy (knob rate (salt + me))
  | Fault.Link_loss { src; dst; rate; salt } ->
    if src = me then Faulty.set_link_loss fy ~dst (knob rate salt)
  | Fault.Duplication { rate; salt } -> Faulty.set_duplication fy (knob rate (salt + me))
  | Fault.Delay_factor f -> Faulty.set_delay_factor fy f
  | Fault.Bandwidth_factor _ -> ()

let clear_all srv =
  Faulty.clear_all (Serve.faulty srv);
  if not (Replica.is_up (Serve.replica srv)) then Replica.recover (Serve.replica srv)

let install srv (sched : Fault.schedule) =
  let loop = Serve.loop srv in
  List.iter
    (fun { Fault.at; action } ->
      Loop.schedule loop ~tag:"fault" ~delay:at (fun () ->
          Replica.emit (Serve.replica srv)
            (Tact_store.Event.Fault { at; action = Fault.describe action });
          apply srv action))
    sched.Fault.events;
  let at = sched.Fault.quiet_after in
  Loop.schedule loop ~tag:"fault" ~delay:at (fun () ->
      Replica.emit (Serve.replica srv)
        (Tact_store.Event.Fault { at; action = "heal-all (quiescent tail)" });
      clear_all srv)
