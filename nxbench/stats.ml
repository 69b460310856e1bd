(* nearest-rank quantile of a sample; 0 for an empty one *)
let quantile q values =
  match List.sort compare values with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median = quantile 0.5
let ms ns = float_of_int ns /. 1e6
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
