(* nxbench: the layered service benchmark.

     nxbench --workload NAME --seed N --seconds S --trace 0|1

   One process, at most two domains (the calling domain plus one pool
   worker), driving the library's serve path ([Engine.Stream]) or batch
   path ([Engine.run_lines]) in a closed loop: one client submits back
   to back, up to one window of outstanding jobs.  See README.md for the
   workloads, the metrics and what each should move. *)

module Svc = Nxc_service
module M = Nxc_obs.Metrics

(* persisted caches, span files and profiles *)
let out_dir = Filename.concat "nxbench" "_out"

(* CLOCK_MONOTONIC in nanoseconds: latencies on the memo-hit path are a
   few microseconds, below the resolution of the library's wall clock *)
let now () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* statistics and the result line                                      *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (number v) unit_)
          metrics))

(* ------------------------------------------------------------------ *)
(* set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* The client keeps as many jobs outstanding as the stream's window on
   the serve path, and as many as the pool has slots on the batch path:
   a batch window's jobs all return together, so small windows give
   the latency quantiles many independent samples. *)
let window_of pool name =
  match Gen.mode_of name with
  | Gen.Stream -> Svc.Engine.Stream.window (Svc.Engine.Stream.create ~pool ())
  | Gen.Batch -> Nxc_par.Pool.slots pool

(* A persisted cache stands for an earlier serve run: it is built
   before the measured process life starts, by running the workload's
   [warm] lines through the engine, and saved where the benchmark keeps
   its outputs.  Returns its path, if the workload has one. *)
let persist_warm name seed =
  Nxc_par.Pool.with_pool ~workers:1 @@ fun pool ->
  match (Gen.make ~window:(window_of pool name) name seed).warm with
  | [] -> None
  | warm -> (
      let cache = Svc.Cache.create ~shards:(Nxc_par.Pool.slots pool) () in
      List.iter
        (fun o ->
          if o.Svc.Engine.exit_code <> 0 then
            failwith
              ("warm job failed: " ^ Nxc_obs.Json.to_string o.Svc.Engine.envelope))
        (Svc.Engine.run_lines ~pool ~cache warm);
      let path = Filename.concat out_dir (Printf.sprintf "%s-s%d.cache" name seed) in
      match Svc.Cache.save cache path with
      | Ok _ -> Some path
      | Error e -> failwith (Nxc_guard.Error.to_string e))

let fresh_cache pool persisted =
  let cache = Svc.Cache.create ~shards:(Nxc_par.Pool.slots pool) () in
  (match persisted with
  | None -> ()
  | Some path -> (
      match Svc.Cache.load cache path with
      | Ok _ -> ()
      | Error e -> failwith (Nxc_guard.Error.to_string e)));
  cache

(* one set-up: create the pool, generate the workload, create the cache
   (loading the persisted file) — everything before the first job *)
let setup name seed persisted =
  let t0 = now () in
  let pool = Nxc_par.Pool.create ~workers:1 () in
  let wl = Gen.make ~window:(window_of pool name) name seed in
  let cache = fresh_cache pool persisted in
  (wl, pool, cache, now () - t0)

(* Every pass starts from set-ups of its own, as a fresh serve or batch
   process would.  The set-ups are thus spread over the whole run and
   see the same host conditions as the passes; setup_s is their median.
   Each is timed from a collected heap, so it does not pay for the
   previous one's garbage.  The last one's workload and cache serve the
   pass.  Its pool is stopped at once, and the passes share one pool:
   a worker domain that has allocated leaves memory behind in the
   runtime when it stops, so pool churn would show in peak_rss_mb. *)
let setups_per_pass = 3

(* A run goes on past --seconds until it has resolved this many
   windows.  The jobs of a window return together and share much of
   their latency, so it is windows, not jobs, that must lie beyond p99
   at least 10 times. *)
let min_windows = 1000

(* ------------------------------------------------------------------ *)
(* one pass                                                            *)
(* ------------------------------------------------------------------ *)

type sample = {
  outcome : Svc.Engine.outcome;
  latency_ns : int;  (** submission to the return of its envelope *)
  wait_ns : int;  (** submission to the start of the call that resolved it *)
}

(* Returns one sample per job, the pass's wall time and the number of
   windows it resolved. *)
let run_pass (wl : Gen.t) ~pool ~cache ~window =
  let lines = Array.map (fun (j : Gen.job) -> j.line) wl.jobs in
  let n = Array.length lines in
  let submitted = Array.make n 0 in
  let samples = Array.make n None in
  let next = ref 0 and windows = ref 0 in
  let resolve call_start outs =
    let t = now () in
    if outs <> [] then incr windows;
    List.iter
      (fun o ->
        let i = !next in
        incr next;
        samples.(i) <-
          Some
            { outcome = o;
              latency_ns = t - submitted.(i);
              wait_ns = call_start - submitted.(i) })
      outs
  in
  let t_start = now () in
  (match wl.mode with
  | Gen.Stream ->
      let stream = Svc.Engine.Stream.create ~pool ~cache () in
      Array.iteri
        (fun i line ->
          let t = now () in
          submitted.(i) <- t;
          resolve t (Svc.Engine.Stream.push stream line))
        lines;
      let t = now () in
      resolve t (Svc.Engine.Stream.flush stream)
  | Gen.Batch ->
      let i = ref 0 in
      while !i < n do
        let hi = min n (!i + window) in
        let t = now () in
        for k = !i to hi - 1 do submitted.(k) <- t done;
        resolve t
          (Svc.Engine.run_lines ~pool ~cache (Array.to_list (Array.sub lines !i (hi - !i))));
        i := hi
      done);
  let wall = now () - t_start in
  if !next <> n then failwith (Printf.sprintf "%d envelopes for %d jobs" !next n);
  (Array.map Option.get samples, wall, !windows)

(* ------------------------------------------------------------------ *)
(* counters the program already keeps                                  *)
(* ------------------------------------------------------------------ *)

let counter_names =
  [ "service.cache.hits"; "service.cache.misses"; "service.stream.memo_hits";
    "service.stream.memo_misses"; "qm.minimize_calls"; "qm.bnb_nodes";
    "qm.budget_exhausted"; "sat.solve_calls"; "sat.conflicts"; "sat.propagations";
    "sat.budget_exhausted"; "sat.cover_partial"; "bism.runs"; "bism.successes";
    "bism.configurations"; "bitslice.kernel_calls"; "bitslice.word_ops";
    "guard.degradations" ]

let snapshot () =
  List.map (fun name -> (name, M.counter_value (M.counter name))) counter_names

let delta before after name = List.assoc name after - List.assoc name before

(* ------------------------------------------------------------------ *)
(* the run                                                             *)
(* ------------------------------------------------------------------ *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let usage () =
    prerr_endline
      "usage: nxbench --workload (npn_hot|synth_cold|fault_flow) --seed N \
       --seconds S --trace 0|1";
    exit 2
  in
  let a =
    ref { workload = ""; seed = 1; seconds = 10.0; trace = false }
  in
  let rec go = function
    | "--workload" :: v :: rest ->
        a := { !a with workload = v };
        go rest
    | "--seed" :: v :: rest ->
        a := { !a with seed = int_of_string v };
        go rest
    | "--seconds" :: v :: rest ->
        a := { !a with seconds = float_of_string v };
        go rest
    | "--trace" :: v :: rest ->
        a := { !a with trace = v = "1" };
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !a.workload Gen.names) then usage ();
  !a

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let () =
  let args = parse_args () in
  mkdir_p out_dir;
  let name = args.workload and seed = args.seed in
  let persisted = persist_warm name seed in
  let pool = Nxc_par.Pool.create ~workers:1 () in
  let setup_s = ref [] and current = ref None in
  let set_up () =
    for _ = 1 to setups_per_pass do
      Gc.full_major ();
      let wl, setup_pool, cache, dt = setup name seed persisted in
      Nxc_par.Pool.shutdown setup_pool;
      setup_s := secs dt :: !setup_s;
      current := Some (wl, cache)
    done;
    Option.get !current
  in
  (* measured passes *)
  let failures = ref [] and failed = ref 0 and attempted = ref 0 in
  let seen = Hashtbl.create 256 in
  let walls = ref [] and latencies = ref [] and waits = ref [] in
  let areas = ref [] and mapped = ref 0 and mappable = ref 0 in
  let repair_degraded = ref 0 and repair_trials = ref 0 in
  let minor_words = ref 0.0 and major_gcs = ref 0 in
  let first_pass = ref None in
  let counters = ref None and first_writes = ref 0 and peak_rss = ref 0.0 in
  let budget_ns = int_of_float (args.seconds *. 1e9) in
  let t_measure = now () in
  let passes = ref 0 and windows = ref 0 in
  while !passes = 0 || now () - t_measure < budget_ns || !windows < min_windows do
    let wl, cache = set_up () in
    let window = window_of pool name in
    let before = snapshot () and size0 = Svc.Cache.size cache in
    let gc0 = Gc.quick_stat () in
    let samples, wall, pass_windows = run_pass wl ~pool ~cache ~window in
    windows := !windows + pass_windows;
    let gc1 = Gc.quick_stat () in
    if !passes = 0 then begin
      (* The high-water mark still climbs for a few passes after the
         first (freed memory is not all reused), so a reading at the end
         of the run would grow with the number of passes that fit in
         --seconds, i.e. with the host's speed.  One pass is a fixed
         amount of work. *)
      peak_rss := peak_rss_mb ();
      counters := Some (before, snapshot ());
      first_writes := Svc.Cache.size cache - size0
    end;
    incr passes;
    walls := wall :: !walls;
    minor_words := !minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    major_gcs := !major_gcs + (gc1.Gc.major_collections - gc0.Gc.major_collections);
    let area = ref 0 in
    Array.iteri
      (fun i s ->
        let job = wl.jobs.(i) in
        let env = Nxc_obs.Json.to_string s.outcome.Svc.Engine.envelope in
        incr attempted;
        latencies := Stats.ms s.latency_ns :: !latencies;
        waits := Stats.ms s.wait_ns :: !waits;
        let verdict =
          match Hashtbl.find_opt seen job.line with
          | Some earlier when earlier <> env ->
              Error "an exact repeat got a different envelope"
          | _ ->
              Hashtbl.replace seen job.line env;
              Check.envelope job s.outcome.Svc.Engine.envelope
        in
        match verdict with
        | Ok t ->
            area := !area + t.Check.area;
            mapped := !mapped + t.Check.mapped;
            mappable := !mappable + t.Check.mappable;
            repair_degraded := !repair_degraded + t.Check.degraded_trials;
            repair_trials := !repair_trials + t.Check.repair_trials
        | Error why ->
            incr failed;
            if List.length !failures < 5 then
              failures := Printf.sprintf "%s: %s" job.line why :: !failures)
      samples;
    areas := float_of_int !area :: !areas;
    if !first_pass = None then first_pass := Some samples
  done;
  let wl, _ = Option.get !current in
  let window = window_of pool name in
  Printf.printf "workload %s, seed %d (held-out seed: %d)\n  why: %s\n  stresses: %s\n  spares: %s\n%!"
    name seed Gen.held_out_seed wl.why wl.stresses wl.spares;
  let total_wall = List.fold_left ( + ) 0 !walls in
  let jobs = Array.length wl.jobs in
  let e2e =
    [ ("setup_s", "s", Stats.median !setup_s);
      ("jobs_per_s", "1/s", float_of_int !attempted /. secs total_wall);
      ("latency_p50_ms", "ms", Stats.quantile 0.5 !latencies);
      ("latency_p99_ms", "ms", Stats.quantile 0.99 !latencies);
      ("peak_rss_mb", "MB", !peak_rss);
      ("array_area", "crosspoints", Stats.median !areas) ]
  in
  let failed_ratio = Stats.ratio !failed !attempted in
  let mapped_ratio = Stats.ratio !mapped !mappable in
  Printf.printf
    "  %d passes of %d jobs (%d latency samples from %d windows, %d windows beyond p99), \
     %d setups, window %d\n"
    !passes jobs !attempted !windows (!windows / 100) (List.length !setup_s) window;
  List.iter (fun (n, u, v) -> Printf.printf "  %-16s %14.4f %s\n" n v u) e2e;
  Printf.printf "  %-16s %14.4f ratio\n  %-16s %14.4f ratio\n" "failed_ratio"
    failed_ratio "mapped_ratio" mapped_ratio;
  List.iter (Printf.printf "  FAILED %s\n") (List.rev !failures);
  let correct = ref (!failed = 0) in
  let metrics =
    if not args.trace then e2e
    else begin
      (* the traced replay of one pass, against the untraced median *)
      let untraced = Stats.median (List.map float_of_int !walls) in
      let cache = fresh_cache pool persisted in
      let lines = Array.map (fun (j : Gen.job) -> j.line) wl.jobs in
      let replay_before = snapshot () in
      let t0 = now () in
      let envelopes =
        Replay.run ~pool ~cache ~window ~memo:(wl.mode = Gen.Stream) lines
      in
      let traced = float_of_int (now () - t0) in
      let dr = delta replay_before (snapshot ()) in
      let before, after = Option.get !counters in
      let d = delta before after in
      (* The replay is a copy of the engine's batch loop, so it must answer
         every job with the untraced first pass's envelope, byte for
         byte, and make the same cache and memo traffic; otherwise its
         profile describes code the engine no longer runs. *)
      let first = Option.get !first_pass in
      let mismatched = ref 0 in
      Array.iteri
        (fun i env ->
          let want = Nxc_obs.Json.to_string first.(i).outcome.Svc.Engine.envelope in
          if env <> want then begin
            incr mismatched;
            if !mismatched <= 3 then
              Printf.printf "  ENVELOPE MISMATCH %s\n    untraced: %s\n    traced:   %s\n"
                lines.(i) want env
          end)
        envelopes;
      let traffic =
        [ ("cache hits", dr "service.cache.hits", d "service.cache.hits");
          ("cache misses", dr "service.cache.misses", d "service.cache.misses");
          ("cache writes", Atomic.get Replay.cache_writes, !first_writes);
          ("memo hits", Atomic.get Replay.memo_hits, d "service.stream.memo_hits");
          ("memo misses", Atomic.get Replay.memo_misses, d "service.stream.memo_misses") ]
      in
      List.iter
        (fun (what, replayed, engine) ->
          if replayed <> engine then begin
            incr mismatched;
            Printf.printf "  TRAFFIC MISMATCH %s: traced %d, untraced %d\n" what replayed
              engine
          end)
        traffic;
      if !mismatched > 0 then correct := false;
      let spans = Trace.spans () in
      let layers = Trace.by_layer spans in
      let tag = Printf.sprintf "%s-s%d" name seed in
      Trace.write_jsonl (Filename.concat out_dir ("spans-" ^ tag ^ ".jsonl")) spans;
      let table = Profile.table ~jobs:(Array.length lines) layers in
      print_string table;
      let oc = open_out (Filename.concat out_dir ("profile-" ^ tag ^ ".txt")) in
      output_string oc table;
      close_out oc;
      let service_ns =
        List.fold_left
          (fun acc (s : Trace.span) -> if s.parent = None then acc + Trace.dur s else acc)
          0 spans
      in
      let slots = Nxc_par.Pool.slots pool in
      Profile.metrics ~layers ~spans ~d
        ~npn_transforms:(Atomic.get Replay.npn_transforms)
        ~cache_writes:(Atomic.get Replay.cache_writes)
        ~waits:!waits
        ~utilization:(float_of_int service_ns /. (float_of_int slots *. untraced))
        ~minor_mwords:(!minor_words /. 1e6 /. float_of_int !passes)
        ~major_gcs:(float_of_int !major_gcs /. float_of_int !passes)
        ~overhead_pct:(100.0 *. (traced -. untraced) /. untraced)
        ~failed_ratio ~mapped_ratio
        ~bira_degraded_ratio:(Stats.ratio !repair_degraded !repair_trials)
    end
  in
  Nxc_par.Pool.shutdown pool;
  print_endline
    (result_line ~correct:!correct ~attempted:!attempted ~failed:!failed metrics)
