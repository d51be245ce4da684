(* Timed encode/decode of batch frames and wire messages built from a run's
   own writes: the codec layer's cost per byte, measured outside the window. *)

open Tact_store
module Wire = Tact_replica.Wire

let time_per_byte ~bytes f =
  let reps = ref 0 in
  let t0 = Proc.now () in
  while Proc.now () -. t0 < 0.15 do
    f ();
    incr reps
  done;
  (Proc.now () -. t0) *. 1e9 /. float_of_int (!reps * bytes)

(* Returns (encode ns/B, decode ns/B), each averaged over Batch and Wire. *)
let measure ~n (writes : Write.t list) =
  let writes = List.filteri (fun i _ -> i < 500) writes in
  if writes = [] then (0.0, 0.0)
  else begin
    let vector = Version_vector.create n in
    let cover = Array.make n 0.0 in
    let batch =
      { Batch.from = 0; shard = 0; kind = Batch.Gossip; vector; cover; csn_start = 0;
        csn = []; rate = 0.0; payload = Batch.Delta writes }
    in
    let wire =
      Wire.Transfer
        { from = 0; writes; vector; cover; csn_start = 0; csn = []; rate = 0.0;
          kind = `Gossip }
    in
    let frame = Codec.Frame.create () in
    let batch_s = Batch.to_string batch and wire_s = Wire.to_string wire in
    let enc_b =
      time_per_byte ~bytes:(String.length batch_s) (fun () ->
          Codec.Frame.clear frame;
          Batch.encode frame batch)
    and enc_w =
      time_per_byte ~bytes:(String.length wire_s) (fun () ->
          Codec.Frame.clear frame;
          Wire.encode frame wire)
    and dec_b =
      time_per_byte ~bytes:(String.length batch_s) (fun () ->
          match Batch.decode batch_s with Ok _ -> () | Error _ -> failwith "batch decode")
    and dec_w =
      time_per_byte ~bytes:(String.length wire_s) (fun () ->
          match Wire.decode wire_s with Ok _ -> () | Error _ -> failwith "wire decode")
    in
    ((enc_b +. enc_w) /. 2.0, (dec_b +. dec_w) /. 2.0)
  end
