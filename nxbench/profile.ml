(* The traced run's per-layer table and metrics. *)

(* the first dotted component: service, logic, sat, core, reliability *)
let group name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let ms = Stats.ms

let table ~jobs layers =
  let total = List.fold_left (fun acc (_, (_, _, self)) -> acc + self) 0 layers in
  let share ns = if total = 0 then 0.0 else 100.0 *. float_of_int ns /. float_of_int total in
  let b = Buffer.create 1024 in
  Printf.bprintf b "  traced replay of %d jobs: %.1f ms of job time\n" jobs (ms total);
  Printf.bprintf b "  %-24s %8s %12s %12s %7s\n" "layer" "calls" "total_ms" "self_ms" "self%";
  List.iter
    (fun (name, (calls, tot, self)) ->
      Printf.bprintf b "  %-24s %8d %12.2f %12.2f %6.1f%%\n" name calls (ms tot) (ms self)
        (share self))
    layers;
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (name, (_, _, self)) ->
      let g = group name in
      Hashtbl.replace groups g (self + Option.value ~default:0 (Hashtbl.find_opt groups g)))
    layers;
  let groups =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Hashtbl.fold (fun g ns acc -> (g, ns) :: acc) groups [])
  in
  Printf.bprintf b "  by module: %s\n"
    (String.concat ", "
       (List.map (fun (g, ns) -> Printf.sprintf "%s %.1f%%" g (share ns)) groups));
  Buffer.contents b

let metrics ~layers ~spans ~d ~npn_transforms ~cache_writes ~waits ~utilization
    ~minor_mwords ~major_gcs ~overhead_pct ~failed_ratio ~mapped_ratio
    ~bira_degraded_ratio =
  let layer name = Option.value ~default:(0, 0, 0) (List.assoc_opt name layers) in
  let self name =
    let _, _, s = layer name in
    ms s
  in
  let calls name =
    let c, _, _ = layer name in
    float_of_int c
  in
  let count name = float_of_int (d name) in
  let ratio = Stats.ratio in
  let npn_ms =
    List.filter_map
      (fun (s : Trace.span) ->
        if s.name = "logic.npn" then Some (ms (Trace.dur s)) else None)
      spans
  in
  let lookups = d "service.cache.hits" + d "service.cache.misses" in
  let memo = d "service.stream.memo_hits" + d "service.stream.memo_misses" in
  let qm_calls = d "qm.minimize_calls" in
  let inexact = d "qm.budget_exhausted" + d "sat.cover_partial" in
  [ ("service.job_parse.self_ms", "ms", self "service.job_parse");
    ("service.render.self_ms", "ms", self "service.render");
    ("service.cache.hit_ratio", "ratio", ratio (d "service.cache.hits") lookups);
    ("service.cache.lookups", "count", float_of_int lookups);
    ("service.cache.writes", "count", float_of_int cache_writes);
    ("service.cache.self_ms", "ms", self "service.cache");
    ("service.memo.hit_ratio", "ratio", ratio (d "service.stream.memo_hits") memo);
    ("service.stream.wait_ms_p50", "ms", Stats.quantile 0.5 waits);
    ("service.stream.wait_ms_p99", "ms", Stats.quantile 0.99 waits);
    ("logic.parse.self_ms", "ms", self "logic.parse");
    ("logic.npn.calls", "count", calls "logic.npn");
    ("logic.npn.self_ms", "ms", self "logic.npn");
    ("logic.npn.p99_ms", "ms", Stats.quantile 0.99 npn_ms);
    ("logic.npn.transforms", "count", float_of_int npn_transforms);
    ("logic.minimize.calls", "count", calls "logic.minimize");
    ("logic.minimize.self_ms", "ms", self "logic.minimize");
    ("logic.qm.bnb_nodes", "count", count "qm.bnb_nodes");
    ( "logic.qm.exact_ratio",
      "ratio",
      if qm_calls = 0 then 0.0 else Float.max 0.0 (1.0 -. ratio inexact qm_calls) );
    ("logic.verify.self_ms", "ms", self "logic.verify");
    ("sat.solve_calls", "count", count "sat.solve_calls");
    ("sat.conflicts", "count", count "sat.conflicts");
    ("sat.propagations", "count", count "sat.propagations");
    ("sat.self_ms", "ms", self "sat");
    ( "sat.budget_exhausted_ratio",
      "ratio",
      ratio (d "sat.budget_exhausted") (d "sat.solve_calls") );
    ("core.synth.self_ms", "ms", self "core.synth");
    ("core.flow.self_ms", "ms", self "core.flow");
    ("lattice.kernel_calls", "count", count "bitslice.kernel_calls");
    ("lattice.word_ops", "count", count "bitslice.word_ops");
    ("reliability.defect.self_ms", "ms", self "reliability.defect");
    ("reliability.bist.self_ms", "ms", self "reliability.bist");
    ("reliability.sat_assign.self_ms", "ms", self "reliability.sat_assign");
    ("reliability.yield.self_ms", "ms", self "reliability.yield");
    ("reliability.bism.self_ms", "ms", self "reliability.bism");
    ( "reliability.bism.configs_per_trial",
      "count",
      ratio (d "bism.configurations") (d "bism.runs") );
    ("reliability.bism.success_ratio", "ratio", ratio (d "bism.successes") (d "bism.runs"));
    ("reliability.bira.self_ms", "ms", self "reliability.bira");
    ("reliability.bira.degraded_ratio", "ratio", bira_degraded_ratio);
    ("par.utilization", "ratio", utilization);
    ("runtime.minor_mwords", "Mwords", minor_mwords);
    ("runtime.major_gcs", "count", major_gcs);
    ("guard.degrade_count", "count", count "guard.degradations");
    ("obs.trace_overhead_pct", "%", overhead_pct);
    ("failed_ratio", "ratio", failed_ratio);
    ("mapped_ratio", "ratio", mapped_ratio) ]
