open Tact_sim
open Tact_store

(* A sharded system is an array of fully independent sub-systems, one per
   shard: shard [s]'s sub-system spans exactly the replicas whose interest
   set contains [s], each running its own engine, network and replica set
   over the shard's slice of the conit space.  Nothing mutable is shared
   between shards (the router is immutable), which is what lets [run]
   dispatch the shard engines across pool domains with bit-identical
   results at any job count. *)

type t = {
  router : Shard.t;
  cfg : Config.t;  (* the global, unsharded-shape configuration *)
  n : int;  (* global replica count *)
  members : int array array;  (* shard -> sorted global replica ids *)
  local_of : int array array;  (* shard -> (global id -> local idx, -1 if out) *)
  subs : System.t array;
  mutation : Mutation.t;
}

let full_interest nshards = List.init nshards Fun.id

(* Project the global gossip plan onto the shard's members: keep only member
   targets, renumbered locally.  If any member's ring projects to empty the
   plan is dropped for the whole shard (round-robin fallback) — a partial
   plan would starve that replica's gossip. *)
let sub_gossip_plan plan members local_of =
  let project g =
    Array.to_list (plan g)
    |> List.filter_map (fun j ->
           if local_of.(j) >= 0 then Some local_of.(j) else None)
    |> Array.of_list
  in
  let rings = Array.map project members in
  if Array.exists (fun ring -> Array.length ring = 0) rings then None
  else Some (fun i -> rings.(i))

let sub_config router s members local_of (cfg : Config.t) =
  let commit_scheme =
    match cfg.Config.commit_scheme with
    | Config.Stability -> Config.Stability
    | Config.Primary p ->
      if local_of.(p) < 0 then
        invalid_arg
          (Printf.sprintf
             "Sharded.create: primary %d does not subscribe to shard %d" p s)
      else Config.Primary local_of.(p)
  in
  let gossip_plan =
    match cfg.Config.gossip_plan with
    | None -> None
    | Some plan -> sub_gossip_plan plan members local_of
  in
  {
    cfg with
    Config.conits =
      List.filter
        (fun (c : Tact_core.Conit.t) -> Shard.route router c.name = s)
        cfg.Config.conits;
    commit_scheme;
    gossip_plan;
    shard_id = s;
    interest = None;  (* within a shard, every member fully replicates it *)
  }

let create ?(seed = 42) ?(jitter = 0.05) ?(loss = 0.0) ?(track_writes = true)
    ?(mutation = Mutation.Off) ?router ~topology ~config () =
  let n = topology.Topology.n in
  (match Config.validate ~n config with
  | Ok () -> ()
  | Error m -> invalid_arg ("Sharded.create: " ^ m));
  let router =
    match router with
    | Some r ->
      if Shard.shards r <> config.Config.shards then
        invalid_arg
          (Printf.sprintf
             "Sharded.create: router has %d shards but config declares %d"
             (Shard.shards r) config.Config.shards);
      r
    | None ->
      if config.Config.shards = 1 then Shard.single
      else Shard.by_hash ~shards:config.Config.shards
  in
  let nshards = Shard.shards router in
  let interest =
    match config.Config.interest with
    | Some f -> f
    | None -> fun _ -> full_interest nshards
  in
  let members =
    Array.init nshards (fun s ->
        let ms = ref [] in
        for r = n - 1 downto 0 do
          if List.mem s (interest r) then ms := r :: !ms
        done;
        if !ms = [] then
          invalid_arg
            (Printf.sprintf "Sharded.create: shard %d has no subscribers" s);
        Array.of_list !ms)
  in
  let local_of =
    Array.map
      (fun ms ->
        let map = Array.make n (-1) in
        Array.iteri (fun li g -> map.(g) <- li) ms;
        map)
      members
  in
  let subs =
    Array.init nshards (fun s ->
        System.create ~seed:(seed + s) ~jitter ~loss ~track_writes ~mutation
          ~topology:(Topology.sub topology members.(s))
          ~config:(sub_config router s members.(s) local_of.(s) config)
          ())
  in
  {
    router;
    cfg = config;
    n;
    members;
    local_of;
    subs;
    mutation;
  }

(* One shard spanning every replica of [sys], with identity ids: the
   per-shard code below then serves a plain system too, without a second
   engine or log. *)
let of_system sys =
  let ids = Array.init (System.size sys) Fun.id in
  {
    router = Shard.single;
    cfg = System.config sys;
    n = Array.length ids;
    members = [| ids |];
    local_of = [| ids |];
    subs = [| sys |];
    mutation = Mutation.Off;
  }

let router t = t.router
let shards t = Array.length t.subs
let size t = t.n
let config t = t.cfg
let sub t s = t.subs.(s)
let members t s = Array.copy t.members.(s)
let engine t ~shard = System.engine t.subs.(shard)

let local_id t ~shard r =
  let li = t.local_of.(shard).(r) in
  if li < 0 then None else Some li

let subscribed t ~shard r = t.local_of.(shard).(r) >= 0

let replica t ~shard r =
  match local_id t ~shard r with
  | Some li -> System.replica t.subs.(shard) li
  | None ->
    invalid_arg
      (Printf.sprintf "Sharded.replica: replica %d does not subscribe to \
                       shard %d" r shard)

let now t =
  Array.fold_left (fun acc s -> Float.max acc (System.now s)) 0.0 t.subs

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

(* The shard an access belongs to: the single shard all its conits route
   to.  Conit-less accesses go to shard 0, like conit-less writes. *)
let target_shard t conits =
  match conits with
  | [] -> 0
  | c :: rest ->
    let s = Shard.route t.router c in
    List.iter
      (fun c' ->
        let s' = Shard.route t.router c' in
        if s' <> s then
          invalid_arg
            (Printf.sprintf
               "Sharded: access spans shards %d (%s) and %d (%s)" s c s' c'))
      rest;
    s

(* Where the router actually sends the access: under the planted
   [Wrong_shard] bug every submission lands one shard over. *)
let routed_shard t conits =
  let s = target_shard t conits in
  match t.mutation with
  | Mutation.Wrong_shard -> (s + 1) mod shards t
  | Mutation.Off | Mutation.Crash_replay | Mutation.Oe_slack _ -> s

let route t conit = Shard.route t.router conit

let resolve t ~replica:r conits =
  let s = routed_shard t conits in
  match local_id t ~shard:s r with
  | Some li -> System.replica t.subs.(s) li
  | None ->
    invalid_arg
      (Printf.sprintf
         "Sharded: replica %d does not subscribe to shard %d (access conits \
          route there)" r s)

let submit_write ?require ?deadline ?on_timeout t ~replica:r ~deps ~affects
    ~op ~k =
  let conits =
    List.map (fun (w : Write.weight) -> w.conit) affects @ List.map fst deps
  in
  Replica.submit_write ?require ?deadline ?on_timeout
    (resolve t ~replica:r conits) ~deps ~affects ~op ~k

let submit_read ?require ?deadline ?on_timeout t ~replica:r ~deps ~f ~k =
  Replica.submit_read ?require ?deadline ?on_timeout
    (resolve t ~replica:r (List.map fst deps)) ~deps ~f ~k

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

(* Shards share no mutable state, so spreading their engines over domains
   cannot change any engine's event order.  [map_array] re-raises the
   lowest-index failing shard's exception; at [jobs = 1] the caller drains
   the engines itself, in shard order. *)
let run ?(jobs = 1) ?until t =
  Array.iter System.prepare t.subs;
  Tact_util.Pool.with_pool ~jobs (fun pool ->
      ignore
        (Tact_util.Pool.map_array pool
           (fun sys -> Engine.run ?until (System.engine sys))
           t.subs));
  Array.iter System.collect_returns t.subs

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)

let converged t = Array.for_all System.converged t.subs

let shard_leaks t =
  let leaks = ref [] in
  Array.iteri
    (fun s sys ->
      for li = System.size sys - 1 downto 0 do
        let g = t.members.(s).(li) in
        let log = Replica.log (System.replica sys li) in
        let check (w : Write.t) =
          List.iter
            (fun (wt : Write.weight) ->
              if Shard.route t.router wt.conit <> s then
                leaks := (s, g, w.Write.id, wt.conit) :: !leaks)
            w.Write.affects
        in
        List.iter check (Wlog.committed log);
        List.iter check (Wlog.tentative log)
      done)
    t.subs;
  !leaks

let total_stats t =
  Array.fold_left
    (fun acc sys -> Replica.add_stats acc (System.total_stats sys))
    (Replica.zero_stats ()) t.subs

let traffic t =
  Array.fold_left
    (fun (acc : Net.stats) sys ->
      let s = System.traffic sys in
      {
        Net.messages = acc.messages + s.Net.messages;
        bytes = acc.bytes + s.Net.bytes;
        dropped = acc.dropped + s.Net.dropped;
        dropped_loss = acc.dropped_loss + s.Net.dropped_loss;
        dropped_cut = acc.dropped_cut + s.Net.dropped_cut;
        max_message = Int.max acc.max_message s.Net.max_message;
      })
    {
      Net.messages = 0;
      bytes = 0;
      dropped = 0;
      dropped_loss = 0;
      dropped_cut = 0;
      max_message = 0;
    }
    t.subs

(* Canonical serialization of the full observable state — databases, vectors
   and protocol counters of every replica of every shard, in fixed order.
   Two runs of the same workload are equivalent iff their digests match;
   the -jN determinism tests compare these strings byte-for-byte. *)
let digest t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf "[";
  Array.iteri
    (fun s sys ->
      for li = 0 to System.size sys - 1 do
        let g = t.members.(s).(li) in
        let r = System.replica sys li in
        let db = Replica.db r in
        let log = Replica.log r in
        if Buffer.length buf > 1 then Buffer.add_string buf ",";
        add "{\"shard\":%d,\"replica\":%d,\"db\":{" s g;
        List.iteri
          (fun i k ->
            if i > 0 then Buffer.add_string buf ",";
            add "%S:%S" k (Value.to_string (Db.get db k)))
          (List.sort String.compare (Db.keys db));
        Buffer.add_string buf "},\"vector\":[";
        let vec = Wlog.vector log in
        for o = 0 to Version_vector.size vec - 1 do
          if o > 0 then Buffer.add_string buf ",";
          add "%d" (Version_vector.get vec o)
        done;
        Buffer.add_string buf "],\"committed\":";
        add "%d" (Wlog.committed_count log);
        let st = Replica.stats r in
        add
          ",\"stats\":{\"gossips\":%d,\"pushes\":%d,\"pulls\":[%d,%d,%d],\
           \"blocked\":%d,\"batches\":%d,\"timeouts\":%d,\"wrong_shard\":%d}}"
          st.Replica.gossips st.Replica.pushes_budget st.Replica.pulls_ne
          st.Replica.pulls_oe st.Replica.pulls_st st.Replica.blocked_accesses
          st.Replica.batches st.Replica.timeouts st.Replica.wrong_shard_frames
      done)
    t.subs;
  Buffer.add_string buf "]";
  Buffer.contents buf

let iter_subs t f = Array.iteri f t.subs
