open Tact_replica

let forced_conit = "lr.forced"
let immediate_conit = "lr.immediate"

let conits =
  [
    Tact_core.Conit.unconstrained forced_conit;
    Tact_core.Conit.unconstrained immediate_conit;
  ]

(* Every transaction, whatever its level, must be ordered after any immediate
   transaction it could have observed. *)
let dep_immediate session =
  Session.dependon_conit session immediate_conit ~ne:0.0 ~oe:0.0 ()

let causal session ~op ~k =
  dep_immediate session;
  Session.write session op ~k

let forced session ~op ~k =
  Session.affect_conit session forced_conit ~nweight:1.0 ~oweight:1.0;
  Session.dependon_conit session forced_conit ~ne:0.0 ~oe:0.0 ();
  dep_immediate session;
  Session.write session op ~k
