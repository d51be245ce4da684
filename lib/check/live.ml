open Tact_transport

let target srv =
  let me = Serve.id srv in
  let replica = Serve.replica srv in
  {
    Fault.links = Faulty.links (Serve.faulty srv);
    local = Array.init (Tcp.size (Serve.tcp srv)) Fun.id;
    replicas = [ (me, replica) ];
    link_salt = 0;
    knob_salt = me;
    emit = Some (Tact_replica.Replica.emit replica);
  }

let install srv sched =
  let loop = Serve.loop srv in
  Fault.arm (target srv) sched ~at:(fun delay f -> Loop.schedule loop ~tag:"fault" ~delay f)
