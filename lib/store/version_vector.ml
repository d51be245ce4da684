type t = int array

let create n = Array.make n 0
let size = Array.length
let get t i = t.(i)
let set t i v = t.(i) <- v
let copy = Array.copy

(* Plain loops: a closure over a ref would allocate on every call, and
   both run on every message. *)
let merge_into dst src =
  assert (Array.length dst = Array.length src);
  for i = 0 to Array.length src - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

(* effects: pure — anti-entropy ordering decisions must depend on the two
   vectors alone; tact_analyze (SA064) verifies the claim. *)
let dominates a b =
  assert (Array.length a = Array.length b);
  let i = ref 0 in
  while !i < Array.length b && a.(!i) >= b.(!i) do
    incr i
  done;
  !i = Array.length b

let equal a b = a = b

let covers t ~origin ~seq = t.(origin) >= seq

let total t = Array.fold_left ( + ) 0 t

let to_string t =
  "<" ^ String.concat "," (Array.to_list (Array.map string_of_int t)) ^ ">"
