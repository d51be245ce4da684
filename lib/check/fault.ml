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

(* A global action projected onto one shard's sub-system: group and replica
   ids are filtered to the shard's subscribers and renumbered locally, so a
   fault never reaches a replica through a shard it does not serve.  Global
   knobs (loss, duplication, delay, bandwidth) apply to every shard's net;
   their rng salt is offset by the shard id (shard 0 keeps the raw salt, so
   a one-shard view replays the plain draw stream exactly). *)
let apply_in_shard sh s sys action =
  let net = System.net sys in
  let mem r = Sharded.subscribed sh ~shard:s r in
  let loc r =
    match Sharded.local_id sh ~shard:s r with
    | Some l -> l
    | None -> invalid_arg "Fault.apply_in_shard: non-member replica"
  in
  let proj g = List.filter_map (fun r -> if mem r then Some (loc r) else None) g in
  let on_groups f a b =
    let a' = proj a and b' = proj b in
    if a' <> [] && b' <> [] then f a' b'
  in
  match action with
  | Cut (a, b) -> on_groups (Tact_sim.Net.partition net) a b
  | Cut_oneway (a, b) -> on_groups (Tact_sim.Net.partition_oneway net) a b
  | Heal_between (a, b) -> on_groups (Tact_sim.Net.heal_between net) a b
  | Heal_all -> Tact_sim.Net.heal net
  | Crash r -> if mem r then Replica.crash (System.replica sys (loc r))
  | Recover r -> if mem r then Replica.recover (System.replica sys (loc r))
  | Recover_all ->
    for l = 0 to System.size sys - 1 do
      Replica.recover (System.replica sys l)
    done
  | Global_loss { rate; salt } ->
    Tact_sim.Net.set_loss net (knob_rng ~salt:(salt + s) ~rate)
  | Link_loss { src; dst; rate; salt } ->
    if mem src && mem dst then
      Tact_sim.Net.set_link_loss net ~src:(loc src) ~dst:(loc dst)
        (knob_rng ~salt:(salt + s) ~rate)
  | Duplication { rate; salt } ->
    Tact_sim.Net.set_duplication net (knob_rng ~salt:(salt + s) ~rate)
  | Delay_factor f -> Tact_sim.Net.set_delay_factor net f
  | Bandwidth_factor f -> Tact_sim.Net.set_bandwidth_factor net f

let apply sh action =
  Sharded.iter_subs sh (fun s sys -> apply_in_shard sh s sys action)

let clear_sys sys =
  let net = System.net sys in
  let n = System.size sys in
  Tact_sim.Net.heal net;
  Tact_sim.Net.set_loss net None;
  Tact_sim.Net.set_duplication net None;
  Tact_sim.Net.set_delay_factor net 1.0;
  Tact_sim.Net.set_bandwidth_factor net 1.0;
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then Tact_sim.Net.set_link_loss net ~src ~dst None
    done
  done;
  for r = 0 to n - 1 do
    Replica.recover (System.replica sys r)
  done

let clear_all sh = Sharded.iter_subs sh (fun _ sys -> clear_sys sys)

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

(* Each shard's engine gets its own copy of every event, applying only that
   shard's projection — shards may be drained on different pool domains, so
   a fault event running on shard A's engine must never touch shard B's
   state.  The quiescent tail is not an event of the schedule: it is
   installed unconditionally so that shrinking can never "find" a failure by
   deleting the heal — after [quiet_after] every disturbance is lifted. *)
let install sh sched =
  Sharded.iter_subs sh (fun s sys ->
      List.iter
        (fun e ->
          Tact_sim.Engine.at (System.engine sys) ~label:fault_label ~time:e.at
            (fun () -> apply_in_shard sh s sys e.action))
        sched.events;
      Tact_sim.Engine.at (System.engine sys) ~label:fault_label
        ~time:sched.quiet_after (fun () -> clear_sys sys))

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
