module Tt = Truth_table
module Obs = Nxc_obs

let m_calls = Obs.Metrics.counter "isop.calls"
let m_rec = Obs.Metrics.counter "isop.recursive_calls"

(* Minato-Morreale ISOP on truth tables.  [l] is the set that must be
   covered, [u] the set that may be covered (l <= u).  Variables are
   consumed in increasing index order; [v] is the next candidate. *)
let rec isop_rec n v l u =
  Obs.Metrics.incr m_rec;
  match Tt.is_const l with
  | Some false -> []
  | _ -> (
      match Tt.is_const u with
      | Some true -> [ Cube.top n ]
      | _ ->
          (* find the next variable on which l or u depends *)
          let rec next v =
            if v >= n then None
            else if Tt.depends_on l v || Tt.depends_on u v then Some v
            else next (v + 1)
          in
          (match next v with
          | None ->
              (* no dependence left: l is constant; handled above unless
                 l = 1, in which case u = 1 too (l <= u) *)
              [ Cube.top n ]
          | Some v ->
              let l0 = Tt.cofactor l v false
              and l1 = Tt.cofactor l v true
              and u0 = Tt.cofactor u v false
              and u1 = Tt.cofactor u v true in
              (* cubes that must carry literal v' / v *)
              let c0 = isop_rec n (v + 1) (Tt.bsub l0 u1) u0 in
              let c1 = isop_rec n (v + 1) (Tt.bsub l1 u0) u1 in
              let f0 = Tt.of_cover (Cover.make n c0)
              and f1 = Tt.of_cover (Cover.make n c1) in
              (* what remains to cover, free of the split literal.  Any
                 remaining minterm of l0 lies in u1 (and dually), so the
                 union is within u0 AND u1. *)
              let l0' = Tt.bsub l0 f0 and l1' = Tt.bsub l1 f1 in
              let cd =
                isop_rec n (v + 1) (Tt.bor l0' l1') (Tt.band u0 u1)
              in
              let attach p c =
                match Cube.intersect (Cube.literal n v p) c with
                | Some c -> c
                | None -> assert false
              in
              List.map (attach Cube.Neg) c0
              @ List.map (attach Cube.Pos) c1
              @ cd))

let isop ?lower u =
  let n = Tt.n_vars u in
  let l = match lower with None -> u | Some l -> l in
  if Tt.n_vars l <> n then invalid_arg "Isop.isop: arity mismatch";
  if Tt.count_ones (Tt.bsub l u) <> 0 then
    invalid_arg "Isop.isop: lower not contained in upper";
  Obs.Metrics.incr m_calls;
  Obs.Span.with_ ~name:"isop.isop"
    ~attrs:(fun () -> [ ("n", Obs.Json.Int n) ])
    (fun () -> Cover.make n (isop_rec n 0 l u))
