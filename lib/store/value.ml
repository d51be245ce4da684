type t =
  | Nil
  | Int of int
  | Float of float
  | Str of string
  | List of t list

let rec equal a b =
  match (a, b) with
  | Nil, Nil -> true
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b
  | Str a, Str b -> String.equal a b
  | List a, List b -> (try List.for_all2 equal a b with Invalid_argument _ -> false)
  | (Nil | Int _ | Float _ | Str _ | List _), _ -> false

let rec compare a b =
  match (a, b) with
  | Nil, Nil -> 0
  | Nil, _ -> -1
  | _, Nil -> 1
  | Int a, Int b -> Int.compare a b
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Float a, Float b -> Float.compare a b
  | Float _, _ -> -1
  | _, Float _ -> 1
  | Str a, Str b -> String.compare a b
  | Str _, _ -> -1
  | _, Str _ -> 1
  | List a, List b -> List.compare compare a b

let to_int = function
  | Nil -> 0
  | Int i -> i
  | Float f -> int_of_float f
  | Str _ | List _ -> invalid_arg "Value.to_int"

let to_float = function
  | Nil -> 0.0
  | Int i -> float_of_int i
  | Float f -> f
  | Str _ | List _ -> invalid_arg "Value.to_float"

let to_list = function
  | Nil -> []
  | List l -> l
  | v -> invalid_arg (Printf.sprintf "Value.to_list: not a list (%s)"
                        (match v with Int _ -> "int" | Float _ -> "float"
                                    | Str _ -> "str" | Nil | List _ -> "?"))

let rec to_string = function
  | Nil -> "nil"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> Printf.sprintf "%S" s
  | List l -> "[" ^ String.concat "; " (List.map to_string l) ^ "]"

(* Exact encoded size under Codec's wire format (tag byte + fixed-width
   payloads + length-prefixed strings); a codec test pins it against the
   real encoder. *)
let rec wire_size = function
  | Nil -> 1
  | Int _ | Float _ -> 1 + 8
  | Str s -> 1 + 8 + String.length s
  | List l -> List.fold_left (fun acc v -> acc + wire_size v) (1 + 8) l
