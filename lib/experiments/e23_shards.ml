open Tact_util
open Tact_sim
open Tact_store
open Tact_replica

(* E23 — sharded conit space with interest-set partial replication.

   Sweep replica count x shard count x interest-set overlap (how many shards
   each replica subscribes to).  Conits are pinned round-robin across
   shards; writes arrive Poisson over the conits, each submitted at a
   replica subscribed to the conit's shard.  The point of the table:

   - sync traffic falls with overlap: a replica stores and syncs only its
     interest set, so total messages scale with [sum of shard membership]
     rather than [n * shards];
   - convergence is per interest set ([Sharded.converged]) and the
     cross-shard containment audit stays clean;
   - the unsharded column (shards = 1, full overlap) is the baseline the
     1-shard differential tests pin byte-identical to a plain [System]. *)

type row = {
  replicas : int;
  shards : int;
  overlap : int;
  writes : int;
  virtual_s : float;
  messages : int;
  bytes : int;
  avg_members : float;
  converged : bool;
  leaks : int;
}

let conits_per_shard = 4

let run_one ~n ~shards ~overlap ~total ~jobs =
  let nconits = shards * conits_per_shard in
  let conit_name k = Printf.sprintf "c%02d" k in
  let router =
    Shard.with_table (Shard.by_hash ~shards)
      (List.init nconits (fun k -> (conit_name k, k mod shards)))
  in
  let interest r =
    List.init overlap (fun i -> (r + i) mod shards) |> List.sort_uniq Int.compare
  in
  let config =
    {
      Config.default with
      Config.antientropy_period = Some 0.2;
      sync = Config.Batched;
      batch_flush = 0.05;
      record_accesses = false;
      shards;
      interest = (if overlap >= shards then None else Some interest);
    }
  in
  let topology = Topology.uniform ~n ~latency:0.02 ~bandwidth:1e8 in
  let sh = Sharded.create ~seed:23 ~jitter:0.02 ~router ~topology ~config () in
  let rng = Prng.create ~seed:230 in
  let rate = 200.0 in
  let duration = float_of_int total /. rate in
  let drain = 30.0 in
  (* Counted per shard: shard engines may run on different domains, and a
     shared counter would lose increments. *)
  let submitted = Array.make shards 0 in
  (* One Poisson arrival process per shard, drawing conits from the shard's
     slice and writers from its membership — client load follows interest. *)
  for s = 0 to shards - 1 do
    let members = Sharded.members sh s in
    let prng = Prng.split rng in
    let wrng = Prng.split rng in
    Tact_workload.Workload.poisson
      (Sharded.engine sh ~shard:s)
      ~rng:prng
      ~rate:(rate /. float_of_int shards)
      ~until:duration
      (fun () ->
        submitted.(s) <- submitted.(s) + 1;
        let k = Prng.int wrng conits_per_shard in
        let conit = conit_name ((k * shards) + s) in
        let writer = members.(Prng.int wrng (Array.length members)) in
        Sharded.submit_write sh ~replica:writer ~deps:[]
          ~affects:[ { Write.conit; nweight = 1.0; oweight = 1.0 } ]
          ~op:(Op.Add ("x:" ^ conit, 1.0))
          ~k:ignore)
  done;
  Sharded.run ~jobs ~until:(duration +. drain) sh;
  let traffic = Sharded.traffic sh in
  let members_total =
    let acc = ref 0 in
    for s = 0 to shards - 1 do
      acc := !acc + Array.length (Sharded.members sh s)
    done;
    !acc
  in
  {
    replicas = n;
    shards;
    overlap;
    writes = Array.fold_left ( + ) 0 submitted;
    virtual_s = Sharded.now sh;
    messages = traffic.Net.messages;
    bytes = traffic.Net.bytes;
    avg_members = float_of_int members_total /. float_of_int shards;
    converged = Sharded.converged sh;
    leaks = List.length (Sharded.shard_leaks sh);
  }

(* (n, shards, overlap, writes) *)
let points ~quick =
  if quick then
    [ (8, 1, 1, 2_000); (8, 4, 4, 2_000); (8, 4, 2, 2_000); (8, 4, 1, 2_000) ]
  else
    [
      (16, 1, 1, 20_000);
      (16, 4, 4, 20_000); (16, 4, 2, 20_000); (16, 4, 1, 20_000);
      (32, 8, 8, 20_000); (32, 8, 2, 20_000); (32, 8, 1, 20_000);
    ]

let run ?(quick = false) () =
  let jobs = Pool.recommended_jobs ~cap:4 () in
  let tbl =
    Table.create
      ~title:
        "E23 — sharded conit space: interest-set partial replication \
         (domain-parallel shard engine)"
      ~columns:
        [ "replicas"; "shards"; "overlap"; "writes"; "virt-s"; "msgs"; "MB";
          "avg members"; "converged"; "leaks" ]
  in
  List.iter
    (fun (n, shards, overlap, total) ->
      let r = run_one ~n ~shards ~overlap ~total ~jobs in
      Table.add_row tbl
        [ string_of_int r.replicas; string_of_int r.shards;
          string_of_int r.overlap; string_of_int r.writes;
          Printf.sprintf "%.0f" r.virtual_s; string_of_int r.messages;
          Printf.sprintf "%.1f" (float_of_int r.bytes /. 1e6);
          Printf.sprintf "%.1f" r.avg_members; string_of_bool r.converged;
          string_of_int r.leaks ])
    (points ~quick);
  Table.render tbl
  ^ "expected: every point converges per interest set with zero cross-shard \
     leaks; messages and bytes fall as overlap narrows (partial replication \
     syncs each shard only among its subscribers); shards=1/overlap=1 is the \
     unsharded baseline the differential tests pin byte-identical to a \
     plain System.\n"
