module Json = Tact_util.Json
open Tact_replica

type action =
  | Cut of int list * int list
  | Cut_oneway of int list * int list
  | Heal_between of int list * int list
  | Heal_all
  | Crash of int
  | Recover of int
  | Recover_all
  | Global_loss of { rate : float; salt : int }
  | Link_loss of { src : int; dst : int; rate : float; salt : int }
  | Duplication of { rate : float; salt : int }
  | Delay_factor of float
  | Bandwidth_factor of float

type event = { at : float; action : action }
type schedule = { events : event list; quiet_after : float }

let group_to_string g =
  "{" ^ String.concat "," (List.map string_of_int g) ^ "}"

let describe = function
  | Cut (a, b) ->
    Printf.sprintf "cut %s|%s" (group_to_string a) (group_to_string b)
  | Cut_oneway (a, b) ->
    Printf.sprintf "cut-oneway %s->%s" (group_to_string a) (group_to_string b)
  | Heal_between (a, b) ->
    Printf.sprintf "heal %s|%s" (group_to_string a) (group_to_string b)
  | Heal_all -> "heal-all"
  | Crash r -> Printf.sprintf "crash %d" r
  | Recover r -> Printf.sprintf "recover %d" r
  | Recover_all -> "recover-all"
  | Global_loss { rate; _ } -> Printf.sprintf "loss %.2f" rate
  | Link_loss { src; dst; rate; _ } ->
    Printf.sprintf "link-loss %d->%d %.2f" src dst rate
  | Duplication { rate; _ } -> Printf.sprintf "duplication %.2f" rate
  | Delay_factor f -> Printf.sprintf "delay x%.2f" f
  | Bandwidth_factor f -> Printf.sprintf "bandwidth x%.2f" f

(* Stochastic knobs carry their own seed ([salt]): the rng an action installs
   depends only on the action itself, so dropping neighbouring events during
   shrinking (or replaying from JSON) never perturbs its draw sequence. *)
let knob_rng ~salt ~rate =
  if rate <= 0.0 then None else Some (Tact_util.Prng.create ~seed:salt, rate)

type target = {
  links : Tact_sim.Links.t;
  local : int array;
  replicas : (int * Replica.t) list;
  link_salt : int;
  knob_salt : int;
  emit : (Tact_store.Event.kind -> unit) option;
}

let local t r =
  if r >= 0 && r < Array.length t.local && t.local.(r) >= 0 then Some t.local.(r)
  else None

let apply t action =
  let on_groups f a b =
    let a' = List.filter_map (local t) a and b' = List.filter_map (local t) b in
    if a' <> [] && b' <> [] then f t.links a' b'
  in
  let on_replica r f =
    List.iter (fun (id, rep) -> if id = r then f rep) t.replicas
  in
  match action with
  | Cut (a, b) -> on_groups Tact_sim.Links.partition a b
  | Cut_oneway (a, b) -> on_groups Tact_sim.Links.partition_oneway a b
  | Heal_between (a, b) -> on_groups Tact_sim.Links.heal_between a b
  | Heal_all -> Tact_sim.Links.heal t.links
  | Crash r -> on_replica r Replica.crash
  | Recover r -> on_replica r Replica.recover
  | Recover_all -> List.iter (fun (_, rep) -> Replica.recover rep) t.replicas
  | Global_loss { rate; salt } ->
    Tact_sim.Links.set_loss t.links (knob_rng ~salt:(salt + t.knob_salt) ~rate)
  | Link_loss { src; dst; rate; salt } -> (
    match (local t src, local t dst) with
    | Some src, Some dst ->
      Tact_sim.Links.set_link_loss t.links ~src ~dst
        (knob_rng ~salt:(salt + t.link_salt) ~rate)
    | _ -> ())
  | Duplication { rate; salt } ->
    Tact_sim.Links.set_duplication t.links (knob_rng ~salt:(salt + t.knob_salt) ~rate)
  | Delay_factor f -> Tact_sim.Links.set_delay_factor t.links f
  | Bandwidth_factor f -> Tact_sim.Links.set_bandwidth_factor t.links f

let clear t =
  Tact_sim.Links.clear t.links;
  List.iter (fun (_, rep) -> Replica.recover rep) t.replicas

(* One target per shard: group and replica ids are filtered to the shard's
   subscribers and renumbered locally, so a fault never reaches a replica
   through a shard it does not serve.  Stochastic salts are offset by the
   shard id (shard 0 keeps the raw salt, so a one-shard view replays the
   plain draw stream exactly). *)
let targets sh =
  List.init (Sharded.shards sh) (fun s ->
      let sys = Sharded.sub sh s in
      {
        links = Tact_sim.Net.links (System.net sys);
        local =
          Array.init (Sharded.size sh) (fun r ->
              Option.value ~default:(-1) (Sharded.local_id sh ~shard:s r));
        replicas =
          Array.to_list
            (Array.mapi (fun l r -> (r, System.replica sys l)) (Sharded.members sh s));
        link_salt = s;
        knob_salt = s;
        emit = System.emit sys;
      })

(* The disturbance footprint of an action: [None] for heals and recoveries
   (they cannot cause a timeout), [Some []] for global knobs (every replica
   is exposed), [Some rs] for faults touching specific replicas.  The
   interest-set-aware O6 uses this to refuse excusing a timeout by a fault
   that could not reach the timed-out replica's shards. *)
let disturbance_scope = function
  | Heal_between _ | Heal_all | Recover _ | Recover_all -> None
  | Cut (a, b) | Cut_oneway (a, b) -> Some (a @ b)
  | Crash r -> Some [ r ]
  | Link_loss { src; dst; _ } -> Some [ src; dst ]
  | Global_loss _ | Duplication _ | Delay_factor _ | Bandwidth_factor _ ->
    Some []

let fault_label = { Tact_sim.Engine.actor = -1; tag = "fault" }

let tail = "heal-all (quiescent tail)"

(* One step of a schedule: publish it, then act ([None] is the tail).  The
   description is built only when there is a sink to read it. *)
let fire t ~at action =
  Option.iter
    (fun emit ->
      let what = match action with Some a -> describe a | None -> tail in
      emit (Tact_store.Event.Fault { at; action = what }))
    t.emit;
  match action with Some a -> apply t a | None -> clear t

(* The quiescent tail is not an event of the schedule: it is armed
   unconditionally so that shrinking can never "find" a failure by deleting
   the heal — after [quiet_after] every disturbance is lifted. *)
let arm ~at t sched =
  List.iter (fun e -> at e.at (fun () -> fire t ~at:e.at (Some e.action))) sched.events;
  at sched.quiet_after (fun () -> fire t ~at:sched.quiet_after None)

(* Each shard's engine gets its own copy of every event, applying only that
   shard's projection — shards may be drained on different pool domains, so
   a fault event running on shard A's engine must never touch shard B's
   state. *)
let install sh sched =
  List.iteri
    (fun s t ->
      let engine = System.engine (Sharded.sub sh s) in
      arm t sched ~at:(fun time f -> Tact_sim.Engine.at engine ~label:fault_label ~time f))
    (targets sh)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let bad_rate r = Float.is_nan r || r < 0.0 || r > 1.0
let bad_group ~n g = g = [] || List.exists (fun i -> i < 0 || i >= n) g
let bad_rid ~n r = r < 0 || r >= n

let action_errors ~n action =
  let err fmt = Printf.ksprintf (fun m -> [ m ]) fmt in
  match action with
  | Cut (a, b) | Cut_oneway (a, b) | Heal_between (a, b) ->
    if bad_group ~n a || bad_group ~n b then
      err "%s: node group out of range (n = %d)" (describe action) n
    else []
  | Heal_all | Recover_all -> []
  | Crash r | Recover r ->
    if bad_rid ~n r then err "%s: not a replica id (n = %d)" (describe action) n
    else []
  | Global_loss { rate; _ } | Duplication { rate; _ } ->
    if bad_rate rate then err "%s: rate outside [0, 1]" (describe action)
    else []
  | Link_loss { src; dst; rate; _ } ->
    if bad_rid ~n src || bad_rid ~n dst then
      err "%s: endpoint out of range (n = %d)" (describe action) n
    else if bad_rate rate then err "%s: rate outside [0, 1]" (describe action)
    else []
  | Delay_factor f | Bandwidth_factor f ->
    if Float.is_nan f || f <= 0.0 then
      err "%s: factor must be positive" (describe action)
    else []

let validate ~n sched =
  let errs =
    List.concat_map
      (fun e ->
        let base = action_errors ~n e.action in
        if Float.is_nan e.at || e.at < 0.0 then
          Printf.sprintf "%s: negative event time %g" (describe e.action) e.at
          :: base
        else if e.at >= sched.quiet_after then
          Printf.sprintf "%s: event at %g not before quiet_after %g"
            (describe e.action) e.at sched.quiet_after
          :: base
        else base)
      sched.events
  in
  if sched.quiet_after <= 0.0 || Float.is_nan sched.quiet_after then
    "quiet_after must be positive" :: errs
  else errs

(* ------------------------------------------------------------------ *)
(* JSON round-trip (the counterexample payload)                        *)

let action_to_json action =
  let group g = Json.Arr (List.map (fun i -> Json.Num (float_of_int i)) g) in
  let num x = Json.Num x in
  let int i = num (float_of_int i) in
  match action with
  | Cut (a, b) -> Json.Obj [ ("t", Json.Str "cut"); ("a", group a); ("b", group b) ]
  | Cut_oneway (a, b) ->
    Json.Obj [ ("t", Json.Str "cut1"); ("a", group a); ("b", group b) ]
  | Heal_between (a, b) ->
    Json.Obj [ ("t", Json.Str "healb"); ("a", group a); ("b", group b) ]
  | Heal_all -> Json.Obj [ ("t", Json.Str "heal") ]
  | Crash r -> Json.Obj [ ("t", Json.Str "crash"); ("r", int r) ]
  | Recover r -> Json.Obj [ ("t", Json.Str "recover"); ("r", int r) ]
  | Recover_all -> Json.Obj [ ("t", Json.Str "recover_all") ]
  | Global_loss { rate; salt } ->
    Json.Obj [ ("t", Json.Str "loss"); ("rate", num rate); ("salt", int salt) ]
  | Link_loss { src; dst; rate; salt } ->
    Json.Obj
      [
        ("t", Json.Str "link_loss");
        ("src", int src);
        ("dst", int dst);
        ("rate", num rate);
        ("salt", int salt);
      ]
  | Duplication { rate; salt } ->
    Json.Obj [ ("t", Json.Str "dup"); ("rate", num rate); ("salt", int salt) ]
  | Delay_factor f -> Json.Obj [ ("t", Json.Str "delay"); ("f", num f) ]
  | Bandwidth_factor f -> Json.Obj [ ("t", Json.Str "bw"); ("f", num f) ]

let event_to_json e =
  match action_to_json e.action with
  | Json.Obj fields -> Json.Obj (("at", Json.Num e.at) :: fields)
  | j -> j

let ( let* ) x f = match x with Some v -> f v | None -> None

let group_of_json j =
  let* items = Json.to_list j in
  List.fold_right
    (fun item acc ->
      let* acc = acc in
      let* i = Json.to_int item in
      Some (i :: acc))
    items (Some [])

let action_of_json j =
  let* tag = Option.bind (Json.member "t" j) Json.to_str in
  let groups k =
    let* a = Option.bind (Json.member "a" j) group_of_json in
    let* b = Option.bind (Json.member "b" j) group_of_json in
    Some (k a b)
  in
  let rid k = Option.bind (Option.bind (Json.member "r" j) Json.to_int) k in
  let rated k =
    let* rate = Option.bind (Json.member "rate" j) Json.to_float in
    let* salt = Option.bind (Json.member "salt" j) Json.to_int in
    k ~rate ~salt
  in
  match tag with
  | "cut" -> groups (fun a b -> Cut (a, b))
  | "cut1" -> groups (fun a b -> Cut_oneway (a, b))
  | "healb" -> groups (fun a b -> Heal_between (a, b))
  | "heal" -> Some Heal_all
  | "crash" -> rid (fun r -> Some (Crash r))
  | "recover" -> rid (fun r -> Some (Recover r))
  | "recover_all" -> Some Recover_all
  | "loss" -> rated (fun ~rate ~salt -> Some (Global_loss { rate; salt }))
  | "link_loss" ->
    rated (fun ~rate ~salt ->
        let* src = Option.bind (Json.member "src" j) Json.to_int in
        let* dst = Option.bind (Json.member "dst" j) Json.to_int in
        Some (Link_loss { src; dst; rate; salt }))
  | "dup" -> rated (fun ~rate ~salt -> Some (Duplication { rate; salt }))
  | "delay" ->
    Option.bind (Option.bind (Json.member "f" j) Json.to_float) (fun f ->
        Some (Delay_factor f))
  | "bw" ->
    Option.bind (Option.bind (Json.member "f" j) Json.to_float) (fun f ->
        Some (Bandwidth_factor f))
  | _ -> None

let event_of_json j =
  let* at = Option.bind (Json.member "at" j) Json.to_float in
  let* action = action_of_json j in
  Some { at; action }

let schedule_to_json s =
  Json.Obj
    [
      ("quiet_after", Json.Num s.quiet_after);
      ("events", Json.Arr (List.map event_to_json s.events));
    ]

let schedule_of_json j =
  let* quiet_after = Option.bind (Json.member "quiet_after" j) Json.to_float in
  let* items = Option.bind (Json.member "events" j) Json.to_list in
  let* events =
    List.fold_right
      (fun item acc ->
        let* acc = acc in
        let* e = event_of_json item in
        Some (e :: acc))
      items (Some [])
  in
  Some { events; quiet_after }
