module Tt = Truth_table
module Obs = Nxc_obs

let m_calls = Obs.Metrics.counter "isop.calls"
let m_rec = Obs.Metrics.counter "isop.recursive_calls"

(* Tables over the variables still in play.  A table over the last [k]
   of [n] variables packs its 2^k bits into [words k] ints of up to
   [chunk] bits, the first of those variables being the most
   significant index bit: its cofactors are the table's low and high
   halves, and a variable neither table depends on is dropped by
   keeping one half. *)
let chunk_log = 5
let chunk = 1 lsl chunk_log

let words k = if k <= chunk_log then 1 else 1 lsl (k - chunk_log)

(* the bits one word of a [k]-variable table uses *)
let word_mask k = if k >= chunk_log then (1 lsl chunk) - 1 else (1 lsl (1 lsl k)) - 1

let zeros k = Array.make (words k) 0
let ones k = Array.make (words k) (word_mask k)
let is_zero t = Array.for_all (( = ) 0) t
let is_ones k t = Array.for_all (( = ) (word_mask k)) t
let equal (a : int array) b = a = b
let band = Array.map2 ( land )
let bor = Array.map2 ( lor )
let bsub = Array.map2 (fun a b -> a land lnot b)

(* the cofactors of a [k]-variable table on its first variable *)
let halves k t =
  if k > chunk_log then
    let h = Array.length t / 2 in
    (Array.sub t 0 h, Array.sub t h h)
  else
    let s = 1 lsl (k - 1) in
    ([| t.(0) land ((1 lsl s) - 1) |], [| t.(0) lsr s |])

(* the [k]-variable table whose cofactors are [lo] and [hi] *)
let join k lo hi =
  if k > chunk_log then Array.append lo hi
  else [| lo.(0) lor (hi.(0) lsl (1 lsl (k - 1))) |]

(* Minato-Morreale ISOP.  [l] is the set that must be covered, [u] the
   set that may be covered (l <= u), both over the last [k] of [n]
   variables, which are consumed in increasing index order.  Returns
   the cubes and their table, so no sub-cover is evaluated again. *)
let rec isop_rec n k l u =
  Obs.Metrics.incr m_rec;
  if is_zero l then ([], zeros k)
  else if is_ones k u then ([ Cube.top n ], ones k)
  else
    (* drop leading variables neither table depends on; one remains,
       since a non-zero [l] below a non-one [u] is not constant *)
    let rec split k l u =
      let l0, l1 = halves k l and u0, u1 = halves k u in
      if equal l0 l1 && equal u0 u1 then split (k - 1) l0 u0
      else (k, l0, l1, u0, u1)
    in
    let k', l0, l1, u0, u1 = split k l u in
    let v = n - k' in
    (* cubes that must carry literal v' / v *)
    let c0, f0 = isop_rec n (k' - 1) (bsub l0 u1) u0 in
    let c1, f1 = isop_rec n (k' - 1) (bsub l1 u0) u1 in
    (* what remains to cover, free of the split literal.  Any remaining
       minterm of l0 lies in u1 (and dually), so the union is within
       u0 AND u1. *)
    let cd, fd =
      isop_rec n (k' - 1) (bor (bsub l0 f0) (bsub l1 f1)) (band u0 u1)
    in
    let attach p c =
      match Cube.intersect (Cube.literal n v p) c with
      | Some c -> c
      | None -> assert false
    in
    let rec widen j f = if j = k then f else widen (j + 1) (join (j + 1) f f) in
    ( List.map (attach Cube.Neg) c0 @ List.map (attach Cube.Pos) c1 @ cd,
      widen k' (join k' (bor f0 fd) (bor f1 fd)) )

(* [t] packed with variable 0 as the most significant index bit *)
let pack t =
  let n = Tt.n_vars t in
  let w = Array.make (words n) 0 in
  for m = 0 to (1 lsl n) - 1 do
    if Tt.eval_int t m then begin
      let j = ref 0 in
      for i = 0 to n - 1 do
        if m land (1 lsl i) <> 0 then j := !j lor (1 lsl (n - 1 - i))
      done;
      w.(!j / chunk) <- w.(!j / chunk) lor (1 lsl (!j mod chunk))
    end
  done;
  w

let isop ?lower u =
  let n = Tt.n_vars u in
  let l = match lower with None -> u | Some l -> l in
  if Tt.n_vars l <> n then invalid_arg "Isop.isop: arity mismatch";
  if Tt.count_ones (Tt.bsub l u) <> 0 then
    invalid_arg "Isop.isop: lower not contained in upper";
  Obs.Metrics.incr m_calls;
  Obs.Span.with_ ~name:"isop.isop"
    ~attrs:(fun () -> [ ("n", Obs.Json.Int n) ])
    (fun () -> Cover.make n (fst (isop_rec n n (pack l) (pack u))))
