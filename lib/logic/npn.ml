(* Output-phase normalization: the smaller of a table and its
   complement is the synth cache's key. *)

module Tt = Truth_table

type transform = {
  perm : int array;
  input_neg : bool array;
  output_neg : bool;
}

let m_canon = Nxc_obs.Metrics.counter "npn.canonicalizations"

let identity n =
  { perm = Array.init n (fun i -> i); input_neg = Array.make n false;
    output_neg = false }

let apply t f =
  let n = Tt.n_vars f in
  if Array.length t.perm <> n || Array.length t.input_neg <> n then
    invalid_arg "Nxc_logic.Npn.apply: arity mismatch";
  Tt.of_fun_int n (fun m ->
      let m' = ref 0 in
      for i = 0 to n - 1 do
        let bit = (m lsr t.perm.(i)) land 1 in
        let bit = if t.input_neg.(i) then bit lxor 1 else bit in
        m' := !m' lor (bit lsl i)
      done;
      Tt.eval_int f !m' <> t.output_neg)

let exhaustive_limit = 0

let rec factorial n = if n <= 1 then 1 else n * factorial (n - 1)

let num_transforms n = (1 lsl (n + 1)) * factorial n

let canonical f =
  Nxc_obs.Metrics.incr m_canon;
  let nf = Tt.bnot f in
  if Tt.compare nf f < 0 then
    ({ (identity (Tt.n_vars f)) with output_neg = true }, nf)
  else (identity (Tt.n_vars f), f)

let table_key f =
  let n = Tt.n_vars f in
  let size = Tt.size f in
  let buf = Buffer.create (8 + ((size + 3) / 4)) in
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ':';
  let nibbles = (size + 3) / 4 in
  for c = 0 to nibbles - 1 do
    let v = ref 0 in
    for b = 0 to 3 do
      let m = (c * 4) + b in
      if m < size && Tt.eval_int f m then v := !v lor (1 lsl b)
    done;
    Buffer.add_char buf "0123456789abcdef".[!v]
  done;
  Buffer.contents buf

let flip = function Cube.Pos -> Cube.Neg | Cube.Neg -> Cube.Pos

let map_cover map_lit c =
  let n = Cover.n_vars c in
  Cover.make n
    (List.map
       (fun cube -> Cube.of_literals n (List.map map_lit (Cube.literals cube)))
       (Cover.cubes c))

let check_arity name t c =
  if Cover.n_vars c <> Array.length t.perm then
    invalid_arg (Printf.sprintf "Nxc_logic.Npn.%s: arity mismatch" name)

let cover_to_canon t c =
  check_arity "cover_to_canon" t c;
  map_cover
    (fun (v, p) -> (t.perm.(v), if t.input_neg.(v) then flip p else p))
    c

let cover_of_canon t c =
  check_arity "cover_of_canon" t c;
  let inv = Array.make (Array.length t.perm) 0 in
  Array.iteri (fun v w -> inv.(w) <- v) t.perm;
  map_cover
    (fun (w, q) ->
      let v = inv.(w) in
      (v, if t.input_neg.(v) then flip q else q))
    c
