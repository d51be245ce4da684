module Counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0
  let get = Atomic.get
  let incr t = Atomic.fetch_and_add t 1
end

module Cell = struct
  type 'a t = { lock : Mutex.t; mutable v : 'a }

  let make v = { lock = Mutex.create (); v }

  let get t =
    Mutex.lock t.lock;
    let v = t.v in
    Mutex.unlock t.lock;
    v

  let update t f =
    Mutex.lock t.lock;
    (match f t.v with
    | v -> t.v <- v
    | exception e ->
      Mutex.unlock t.lock;
      raise e);
    Mutex.unlock t.lock
end

module Map = struct
  type ('k, 'v) shard = { lock : Mutex.t; tbl : ('k, 'v) Hashtbl.t }
  type ('k, 'v) t = ('k, 'v) shard array

  let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

  let create ?(shards = 16) size_hint =
    let n = pow2 (Stdlib.max 1 shards) 1 in
    let per = Stdlib.max 16 (size_hint / n) in
    Array.init n (fun _ ->
        { lock = Mutex.create (); tbl = Hashtbl.create per })

  let shard t k = t.(Hashtbl.hash k land (Array.length t - 1))

  let find_opt t k =
    let s = shard t k in
    Mutex.lock s.lock;
    let r = Hashtbl.find_opt s.tbl k in
    Mutex.unlock s.lock;
    r

  let update t k f =
    let s = shard t k in
    Mutex.lock s.lock;
    (match f (Hashtbl.find_opt s.tbl k) with
    | Some v -> Hashtbl.replace s.tbl k v
    | None -> Hashtbl.remove s.tbl k
    | exception e ->
      Mutex.unlock s.lock;
      raise e);
    Mutex.unlock s.lock

  let length t =
    Array.fold_left (fun acc s ->
        Mutex.lock s.lock;
        let n = Hashtbl.length s.tbl in
        Mutex.unlock s.lock;
        acc + n)
      0 t
end
