(* The seeded simulation kinds, one typed function each: the engine
   turns their results into JSON payloads, the CLI subcommands print
   them as text. *)

module R = Nxc_reliability
module C = Nxc_core

let chip ~n ~density ~seed =
  R.Defect.generate (R.Rng.create seed) ~rows:n ~cols:n
    (R.Defect.uniform density)

let flow ~n ~density ~seed f =
  let chip = chip ~n ~density ~seed in
  C.Flow.run_result (R.Rng.create (seed + 1)) ~chip f
  |> Result.map (fun r -> (chip, r))

type bist = {
  plan : R.Bist.plan;
  faults : int;
  coverage : float;
  undetected : R.Fault_model.fault list;
}

let bist ~rows ~cols =
  let plan = R.Bist.plan ~rows ~cols in
  let universe = R.Fault_model.universe ~rows ~cols in
  let coverage, undetected = R.Bist.coverage plan universe in
  { plan; faults = List.length universe; coverage; undetected }

type bism = Heuristic of R.Bism.mc | Exact of R.Sat_assign.mc

let bism ?pool ~n ~k ~density ~seed ~trials scheme =
  let rng = R.Rng.create seed and profile = R.Defect.uniform density in
  let heuristic scheme =
    let mc, _ =
      R.Bism.monte_carlo ?pool rng scheme ~trials ~n ~profile ~k_rows:k
        ~k_cols:k ~max_configs:1000
    in
    Heuristic mc
  in
  match scheme with
  | "blind" -> heuristic R.Bism.Blind
  | "greedy" -> heuristic R.Bism.Greedy
  | "hybrid" -> heuristic (R.Bism.Hybrid 10)
  | "sat" ->
      Exact
        (R.Sat_assign.monte_carlo ?pool rng ~trials ~n ~profile ~k_rows:k
           ~k_cols:k)
  | s -> invalid_arg (Printf.sprintf "Sim.bism: unknown scheme %S" s)

type yield = { mean_max_k : float; guaranteed_k : (float * int) list }

let yield ?pool ~n ~density ~seed ~trials () =
  let profile = R.Defect.uniform density in
  let mean_max_k =
    R.Yield_model.expected_max_k ?pool (R.Rng.create seed) ~trials ~n ~profile
  in
  let at y =
    ( y,
      R.Yield_model.guaranteed_k ?pool
        (R.Rng.create (seed + 1))
        ~trials ~n ~profile ~min_yield:y )
  in
  { mean_max_k; guaranteed_k = List.map at [ 0.5; 0.9; 0.99 ] }

let repair ?pool ~rows ~cols ~spare_rows ~spare_cols ~density ~seed ~trials
    mode =
  let mode =
    match mode with
    | "exact" -> R.Bira.Exact
    | "greedy" -> R.Bira.Greedy
    | s -> invalid_arg (Printf.sprintf "Sim.repair: unknown mode %S" s)
  in
  let mc, _ =
    R.Bira.monte_carlo ?pool ~mode (R.Rng.create seed) ~trials ~rows ~cols
      ~spare_rows ~spare_cols
      ~profile:(R.Defect.uniform density)
  in
  (mc, Nxc_crossbar.Metrics.spare_overhead ~rows ~cols ~spare_rows ~spare_cols ())
