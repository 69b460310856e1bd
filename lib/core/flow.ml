module R = Nxc_reliability
module Lt = Nxc_lattice
module Guard = Nxc_guard

type result = {
  impl : Synth.t;
  bism : R.Bism.stats;
  mapping : R.Bism.mapping option;
  functional : bool;
}

let lattice_with_defects lattice chip (mapping : R.Bism.mapping) =
  Lt.Lattice.map
    (fun r c site ->
      let pr = mapping.R.Bism.row_map.(r) and pc = mapping.R.Bism.col_map.(c) in
      match R.Defect.kind_at chip pr pc with
      | None -> site
      | Some R.Defect.Stuck_open -> Lt.Lattice.Zero
      | Some (R.Defect.Stuck_closed | R.Defect.Bridge) -> Lt.Lattice.One)
    lattice

module Obs = Nxc_obs

let m_runs = Obs.Metrics.counter "flow.runs"
let m_functional = Obs.Metrics.counter "flow.functional"
let m_infeasible = Obs.Metrics.counter "flow.infeasible"
let m_escalations = Obs.Metrics.counter "flow.escalations"

let no_stats =
  { R.Bism.success = false;
    configurations = 0;
    test_applications = 0;
    diagnoses = 0 }

let add_stats (a : R.Bism.stats) (b : R.Bism.stats) =
  { R.Bism.success = a.success || b.success;
    configurations = a.configurations + b.configurations;
    test_applications = a.test_applications + b.test_applications;
    diagnoses = a.diagnoses + b.diagnoses }

(* A lattice larger than the chip can never be placed: report it as a
   clean non-functional result instead of letting BISM raise. *)
let feasible chip lattice =
  Lt.Lattice.rows lattice <= R.Defect.rows chip
  && Lt.Lattice.cols lattice <= R.Defect.cols chip

let verify_mapping chip lattice func mapping =
  Obs.Span.with_ ~name:"flow.verify" @@ fun () ->
  match mapping with
  | None -> false
  | Some m -> Lt.Checker.equivalent (lattice_with_defects lattice chip m) func

let run ?(scheme = R.Bism.Hybrid 10) ?(max_configs = 1000) ?guard rng ~chip
    func =
  Obs.Metrics.incr m_runs;
  Obs.Span.with_ ~name:"flow.run"
    ~attrs:(fun () -> [ ("name", Obs.Json.Str (Nxc_logic.Boolfunc.name func)) ])
  @@ fun () ->
  let guard = Guard.Budget.resolve guard in
  let impl = Synth.synthesize ~guard func in
  let lattice = Synth.best_lattice impl in
  if not (feasible chip lattice) then begin
    Obs.Metrics.incr m_infeasible;
    { impl; bism = no_stats; mapping = None; functional = false }
  end
  else begin
    let bism, mapping =
      Obs.Span.with_ ~name:"flow.bism" (fun () ->
          R.Bism.run ~guard rng scheme ~chip
            ~k_rows:(Lt.Lattice.rows lattice)
            ~k_cols:(Lt.Lattice.cols lattice)
            ~max_configs)
    in
    let functional = verify_mapping chip lattice func mapping in
    if functional then Obs.Metrics.incr m_functional;
    { impl; bism; mapping; functional }
  end

(* Escalation ladder for [run_result]: blind is the cheapest hardware
   scheme, hybrid adds diagnosis after a few retries, greedy diagnoses
   from the start.  Each rung gets a slice of the total configuration
   cap; moving down a rung is a counted degradation. *)
let ladder max_configs =
  let blind = max 1 (max_configs / 4) in
  [ (R.Bism.Blind, blind);
    (R.Bism.Hybrid 10, max 1 (max_configs / 4));
    (R.Bism.Greedy, max 1 (max_configs - blind - max 1 (max_configs / 4))) ]

let run_result ?scheme ?(max_configs = 1000) ?guard rng ~chip func =
  Obs.Metrics.incr m_runs;
  Obs.Span.with_ ~name:"flow.run"
    ~attrs:(fun () -> [ ("name", Obs.Json.Str (Nxc_logic.Boolfunc.name func)) ])
  @@ fun () ->
  let guard = Guard.Budget.resolve guard in
  match Synth.synthesize_result ~guard func with
  | Error e -> Error e
  | Ok impl ->
      let lattice = Synth.best_lattice impl in
      if not (feasible chip lattice) then begin
        Obs.Metrics.incr m_infeasible;
        Ok { impl; bism = no_stats; mapping = None; functional = false }
      end
      else
        let k_rows = Lt.Lattice.rows lattice
        and k_cols = Lt.Lattice.cols lattice in
        let stages =
          match scheme with
          | Some s -> [ (s, max_configs) ]
          | None -> ladder max_configs
        in
        let rec attempt acc_stats escalated = function
          | [] -> (acc_stats, None, escalated)
          | (s, cap) :: rest ->
              if escalated then begin
                Obs.Metrics.incr m_escalations;
                Guard.Budget.degrade "flow_escalation"
              end;
              let stats, mapping =
                Obs.Span.with_ ~name:"flow.bism" (fun () ->
                    R.Bism.run ~guard rng s ~chip ~k_rows ~k_cols
                      ~max_configs:cap)
              in
              let acc_stats = add_stats acc_stats stats in
              (match mapping with
              | Some _ -> (acc_stats, mapping, escalated)
              | None ->
                  if Guard.Budget.exhausted guard then
                    (acc_stats, None, escalated)
                  else attempt acc_stats true rest)
        in
        let bism, mapping, _ = attempt no_stats false stages in
        if Guard.Budget.exhausted guard && mapping = None
           && Guard.Budget.policy guard = Guard.Budget.Fail
        then Error (Guard.Budget.error guard)
        else begin
          let functional = verify_mapping chip lattice func mapping in
          if functional then Obs.Metrics.incr m_functional;
          Ok { impl; bism; mapping; functional }
        end

type aware_result = {
  aware_impl : Synth.t;
  placed : bool;
  aware_functional : bool;
}

let run_defect_aware ?(attempts = 200) ?guard rng ~chip func =
  Obs.Span.with_ ~name:"flow.defect_aware" @@ fun () ->
  let guard = Guard.Budget.resolve guard in
  let aware_impl = Synth.synthesize ~guard func in
  let lattice = Synth.best_lattice aware_impl in
  match R.Defect_flow.place_lattice ~guard rng chip lattice ~attempts with
  | None -> { aware_impl; placed = false; aware_functional = false }
  | Some (rows, cols) ->
      let mapping = { R.Bism.row_map = rows; col_map = cols } in
      let aware_functional =
        Lt.Checker.equivalent (lattice_with_defects lattice chip mapping) func
      in
      { aware_impl; placed = true; aware_functional }
