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
  type ('k, 'v) t = { lock : Mutex.t; tbl : ('k, 'v) Hashtbl.t }

  let create size_hint =
    { lock = Mutex.create (); tbl = Hashtbl.create size_hint }

  let find_opt t k =
    Mutex.lock t.lock;
    let r = Hashtbl.find_opt t.tbl k in
    Mutex.unlock t.lock;
    r

  let update t k f =
    Mutex.lock t.lock;
    (match f (Hashtbl.find_opt t.tbl k) with
    | Some v -> Hashtbl.replace t.tbl k v
    | None -> Hashtbl.remove t.tbl k
    | exception e ->
      Mutex.unlock t.lock;
      raise e);
    Mutex.unlock t.lock

  let length t =
    Mutex.lock t.lock;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.lock;
    n
end
