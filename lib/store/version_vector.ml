type t = int array

let create n = Array.make n 0
let size = Array.length
let get t i = t.(i)
let set t i v = t.(i) <- v
let copy = Array.copy

let merge_into dst src =
  assert (Array.length dst = Array.length src);
  Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src

(* effects: pure — anti-entropy ordering decisions must depend on the two
   vectors alone; tact_analyze (SA064) verifies the claim. *)
let dominates a b =
  assert (Array.length a = Array.length b);
  let ok = ref true in
  Array.iteri (fun i v -> if a.(i) < v then ok := false) b;
  !ok

let equal a b = a = b

let covers t ~origin ~seq = t.(origin) >= seq

let total t = Array.fold_left ( + ) 0 t

let to_string t =
  "<" ^ String.concat "," (Array.to_list (Array.map string_of_int t)) ^ ">"
