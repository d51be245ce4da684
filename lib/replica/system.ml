open Tact_util
open Tact_sim
open Tact_store

type write_meta = {
  write : Write.t;
  accept_vector : Version_vector.t;
  mutable return_time : float;
}

type t = {
  engine : Engine.t;
  net : Net.t;
  config : Config.t;
  replicas : Replica.t array;
  on_event : (Event.t -> unit) option;
  writes : (Write.id, write_meta) Hashtbl.t;
  mutable started : bool;
  mutable closed : bool;
}

(* The simulator passes messages as values and charges each its modelled
   wire size. *)
let msg_size n = function
  | Wire.Transfer { writes; csn; _ } ->
    (* writes + vector + cover + csn slice + headers *)
    List.fold_left (fun acc w -> acc + Write.byte_size w) 0 writes
    + (8 * n) + (8 * n) + (8 * List.length csn) + 32
  | Wire.Snapshot { snap; writes; _ } ->
    (* Snapshots are fully serialisable, so their wire size is exact — and
       computable arithmetically, without paying for the serialisation on
       every send. *)
    Codec.snapshot_byte_size snap
    + List.fold_left (fun acc w -> acc + Write.byte_size w) 0 writes
    + (2 * 8 * n) + 64
  | Wire.Pull_req _ -> (8 * n) + 16
  | Wire.Ack _ -> (8 * n) + 16
  | Wire.Batch_frame s -> String.length s

let create ?(seed = 42) ?(jitter = 0.05) ?(loss = 0.0) ?(track_writes = true)
    ?mutation ?on_event ~topology ~config () =
  (match Config.validate ~n:topology.Topology.n config with
  | Ok () -> ()
  | Error m -> invalid_arg ("System.create: " ^ m));
  let engine = Engine.create () in
  let rng = Prng.create ~seed in
  let jit = if jitter > 0.0 then Some (rng, jitter) else None in
  let lss = if loss > 0.0 then Some (Prng.split rng, loss) else None in
  let net = Net.create engine topology ?jitter:jit ?loss:lss () in
  let writes = Hashtbl.create 1024 in
  let n = topology.Topology.n in
  let replicas = ref [||] in
  let on_accept =
    if track_writes then
      Some
        (fun w vec ->
          Hashtbl.replace writes w.Write.id
            { write = w; accept_vector = vec; return_time = w.Write.accept_time })
    else None
  in
  let endpoint i =
    {
      Transport.ep_now = (fun () -> Engine.now engine);
      ep_schedule =
        (fun ~tag ~delay f ->
          Engine.schedule engine ~label:{ Engine.actor = i; tag } ~delay f);
      ep_every =
        (fun ~tag ~period f ->
          Engine.every engine ~label:{ Engine.actor = i; tag } ~period f);
      ep_send =
        (fun ~dst msg ->
          (* Capture the destination's crash epoch at send time: a message
             still in flight when the target crashes belongs to the dead
             incarnation and is discarded on arrival, even if the target has
             since recovered.  (Models connection state dying with the
             process.) *)
          let target = !replicas.(dst) in
          let epoch = Replica.crash_count target in
          Net.send net ~src:i ~dst ~size:(msg_size n msg) (fun () ->
              if Replica.crash_count target = epoch then
                Replica.receive target ~src:i msg);
          Ok ());
      ep_close = ignore;
      ep_emit = on_event;
    }
  in
  replicas :=
    Array.init n (fun i ->
        Replica.create ~id:i ~n ~endpoint:(endpoint i) ~config ?mutation
          ?on_accept ());
  { engine; net; config; replicas = !replicas; on_event; writes; started = false;
    closed = false }

let engine t = t.engine
let config t = t.config
let net t = t.net
let size t = Array.length t.replicas
let replica t i = t.replicas.(i)
let now t = Engine.now t.engine

let emit t =
  Option.map
    (fun sink kind -> sink { Event.time = Engine.now t.engine; node = -1; kind })
    t.on_event

let prepare t =
  if not t.started then begin
    t.started <- true;
    Array.iter Replica.start t.replicas
  end

(* Writes return through continuations; the return time visible to external
   order is recorded via access records.  Fold them in lazily here. *)
let collect_returns t =
  Array.iter
    (fun r ->
      List.iter
        (fun (a : Tact_core.Access.t) ->
          match a.kind with
          | Tact_core.Access.Write_access id -> (
            match Hashtbl.find_opt t.writes id with
            | Some meta -> meta.return_time <- a.return_time
            | None -> ())
          | Tact_core.Access.Read -> ())
        (Replica.records r))
    t.replicas

(* Idempotent transport teardown for every replica.  In simulation this only
   makes further sends inert (the Net owns no per-replica resources); [run]
   guarantees it even when a replica raises mid-execution, so a crashed run
   never leaks backend resources. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter Replica.close t.replicas
  end

let run ?until t =
  prepare t;
  (try Engine.run ?until t.engine
   with e ->
     (* A replica raising out of an event handler aborts the run; tear the
        transports down before propagating so nothing leaks.  Normal
        completion leaves them open — callers may run further phases. *)
     close t;
     raise e);
  collect_returns t

let all_writes t =
  (* lint: allow hashtbl-fold — collected list is sorted just below *)
  Hashtbl.fold (fun _ m acc -> m.write :: acc) t.writes []
  |> List.sort Write.ts_compare

let write_count t = Hashtbl.length t.writes

let find_write t id =
  Option.map (fun m -> m.write) (Hashtbl.find_opt t.writes id)

let return_time t id =
  match Hashtbl.find_opt t.writes id with
  | Some m -> m.return_time
  | None -> invalid_arg ("System.return_time: unknown write " ^ Write.id_to_string id)

let accept_vector t id =
  match Hashtbl.find_opt t.writes id with
  | Some m -> m.accept_vector
  | None -> invalid_arg ("System.accept_vector: unknown write " ^ Write.id_to_string id)

let records t =
  Array.to_list t.replicas
  |> List.concat_map Replica.records
  |> List.sort (fun (a : Tact_core.Access.t) b -> Float.compare a.serve_time b.serve_time)

let traffic t = Net.stats t.net

let total_stats t =
  Array.fold_left
    (fun acc r -> Replica.add_stats acc (Replica.stats r))
    (Replica.zero_stats ()) t.replicas

let converged t =
  let reference = Replica.db t.replicas.(0) in
  Array.for_all (fun r -> Db.equal (Replica.db r) reference) t.replicas
