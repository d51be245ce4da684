type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int }

let create () = { data = [||]; len = 0 }

let is_empty t = t.len = 0

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.data in
  if t.len >= cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    (* Dummy filler entry; never observed because len bounds all reads. *)
    let filler = t.data.(0) in
    let ndata = Array.make ncap filler in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end

let push t ~time ~seq value =
  let entry = { time; seq; value } in
  if Array.length t.data = 0 then t.data <- Array.make 16 entry else grow t;
  t.data.(t.len) <- entry;
  t.len <- t.len + 1;
  (* Sift up. *)
  let i = ref (t.len - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    less t.data.(!i) t.data.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = t.data.(!i) in
    t.data.(!i) <- t.data.(parent);
    t.data.(parent) <- tmp;
    i := parent
  done

(* Slots past [len] still point at entries, popped ones included.  Once the
   live prefix falls under a quarter of the capacity, copy it into a fresh
   array half as full, so a drained burst does not keep its popped events
   alive (and the array shrinks with the queue). *)
let shrink t =
  let cap = Array.length t.data in
  if cap > 64 && t.len < cap / 4 then
    if t.len = 0 then t.data <- [||]
    else begin
      let ndata = Array.make (max 16 (2 * t.len)) t.data.(0) in
      Array.blit t.data 0 ndata 0 t.len;
      t.data <- ndata
    end

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.len && less t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.len && less t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.data.(!i) in
          t.data.(!i) <- t.data.(!smallest);
          t.data.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    shrink t;
    Some (top.time, top.seq, top.value)
  end

let peek_time t = if t.len = 0 then None else Some t.data.(0).time

let iter f t =
  for i = 0 to t.len - 1 do
    let e = t.data.(i) in
    f ~time:e.time ~seq:e.seq e.value
  done
