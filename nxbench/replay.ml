(* The traced replay: every job of a pass re-driven through the public
   functions the service engine calls, in the engine's order and with
   the engine's parallel structure (pooled planning, compute and render;
   cache reads and writes on the calling domain, in job order), each
   call wrapped in a {!Trace} span.  The per-kind plans below mirror
   [Nxc_service.Engine]'s; the replay answers every job with an
   envelope built the same way, and its cache and memo traffic is
   counted, so the caller can hold both against the untraced run's and
   catch the copy drifting from the engine. *)

open Nxc_logic
module J = Nxc_obs.Json
module Error = Nxc_guard.Error
module Budget = Nxc_guard.Budget
module R = Nxc_reliability
module C = Nxc_core
module Svc = Nxc_service

type keyed = {
  key : string;
  compute : unit -> (J.t, Error.t) result;
  render : J.t -> (J.t * int, Error.t) result;
}

type plan = Bad of Error.t | Keyed of keyed

(* counts the replay keeps beside its spans *)
let npn_transforms = Atomic.make 0
let cache_writes = Atomic.make 0
let memo_hits = Atomic.make 0
let memo_misses = Atomic.make 0

let with_job_budget (job : Svc.Job.t) f =
  match job.Svc.Job.budget_steps with
  | Some steps -> Budget.with_current (Budget.create ~label:"job" ~steps ()) f
  | None -> f ()

(* ------------------------------------------------------------------ *)
(* synth                                                               *)
(* ------------------------------------------------------------------ *)

(* the engine's cache-entry codec: one "10-" string per cube *)
let cube_to_chars n cube =
  String.init n (fun i ->
      match Cube.polarity_of cube i with
      | Some Cube.Pos -> '1'
      | Some Cube.Neg -> '0'
      | None -> '-')

let cube_of_chars s =
  let lits = ref [] in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> lits := (i, Cube.Pos) :: !lits
      | '0' -> lits := (i, Cube.Neg) :: !lits
      | '-' -> ()
      | _ -> failwith "bad cube char")
    s;
  Cube.of_literals (String.length s) !lits

let cover_to_json c =
  J.List
    (List.map (fun cube -> J.Str (cube_to_chars (Cover.n_vars c) cube)) (Cover.cubes c))

let cover_of_json n = function
  | J.List cubes ->
      Cover.make n
        (List.map
           (function
             | J.Str s when String.length s = n -> cube_of_chars s
             | _ -> failwith "bad cube")
           cubes)
  | _ -> failwith "bad cover"

let corrupt () = Error (Error.internal "corrupt cache entry for synth job")

let plan_synth ~jid (job : Svc.Job.t) expr cover_backend =
  match Trace.span ~job:jid "logic.parse" (fun () -> Parse.expr_result expr) with
  | Error e -> Bad e
  | Ok f ->
      let n = Boolfunc.n_vars f in
      let tr, canon =
        Trace.span ~job:jid "logic.npn" (fun () -> Npn.canonical (Boolfunc.table f))
      in
      if n <= Npn.exhaustive_limit then
        ignore (Atomic.fetch_and_add npn_transforms (Npn.num_transforms n) : int);
      let phase = if tr.Npn.output_neg then "-" else "+" in
      let budget_tag =
        match job.Svc.Job.budget_steps with
        | Some b -> ":b" ^ string_of_int b
        | None -> ""
      in
      let backend, backend_tag =
        match cover_backend with "sat" -> (Some Qm.Sat, ":sat") | _ -> (None, "")
      in
      let key = "npn:" ^ Npn.table_key canon ^ phase ^ budget_tag ^ backend_tag in
      let sop g =
        Trace.span ~job:jid "logic.minimize" (fun () ->
            Trace.folding_inner ~job:jid (fun () ->
                Minimize.sop_result ?cover_backend:backend g))
      in
      let compute () =
        with_job_budget job @@ fun () ->
        (* the engine minimizes f, then its dual, under one job budget:
           with a tight budget the order decides which one degrades *)
        let c = sop f in
        let d = sop (Boolfunc.dual f) in
        match (c, d) with
        | Ok c, Ok d ->
            Ok
              (J.Obj
                 [ ("n", J.Int n);
                   ("cover", cover_to_json (Npn.cover_to_canon tr c.Minimize.cover));
                   ("dual", cover_to_json (Npn.cover_to_canon tr d.Minimize.cover));
                   ("degraded", J.Bool (c.Minimize.degraded || d.Minimize.degraded)) ])
        | Error e, _ | _, Error e -> Error e
      in
      let render value =
        match (J.member "cover" value, J.member "dual" value, J.member "degraded" value) with
        | Some cj, Some dj, Some (J.Bool degraded) -> (
            match (cover_of_json n cj, cover_of_json n dj) with
            | exception _ -> corrupt ()
            | canon_cover, canon_dual ->
                let cover = Npn.cover_of_canon tr canon_cover in
                let dual = Npn.cover_of_canon tr canon_dual in
                if
                  not
                    (Trace.span ~job:jid "logic.verify" (fun () ->
                         Minimize.verify cover f
                         && Minimize.verify dual (Boolfunc.dual f)))
                then corrupt ()
                else
                  let p = Cover.num_cubes cover and pd = Cover.num_cubes dual in
                  let lits = List.length (Cover.distinct_literals cover) in
                  let dims rows cols = J.Obj [ ("rows", J.Int rows); ("cols", J.Int cols) ] in
                  Ok
                    ( J.Obj
                        [ ("n", J.Int n);
                          ("products", J.Int p);
                          ("dual_products", J.Int pd);
                          ("distinct_literals", J.Int lits);
                          ("cover", J.Str (Cover.to_string cover));
                          ("diode", dims p (lits + 1));
                          ("fet", dims lits (p + pd));
                          ("lattice", dims pd p);
                          ("degraded", J.Bool degraded);
                          ("verified", J.Bool true) ],
                      0 ))
        | _ -> corrupt ()
      in
      Keyed { key; compute; render }

(* ------------------------------------------------------------------ *)
(* seeded simulations                                                  *)
(* ------------------------------------------------------------------ *)

let plan_sim (job : Svc.Job.t) compute_payload ~exit_of =
  Keyed
    { key = Svc.Job.cache_key job;
      compute = (fun () -> with_job_budget job compute_payload);
      render = (fun v -> Ok (v, exit_of v)) }

let exit_zero _ = 0

let plan_flow ~jid job expr n density seed =
  match Trace.span ~job:jid "logic.parse" (fun () -> Parse.expr_result expr) with
  | Error e -> Bad e
  | Ok f ->
      plan_sim job
        (fun () ->
          let chip =
            Trace.span ~job:jid "reliability.defect" (fun () ->
                R.Defect.generate (R.Rng.create seed) ~rows:n ~cols:n
                  (R.Defect.uniform density))
          in
          match
            Trace.span ~job:jid "core.flow" (fun () ->
                Trace.folding_inner ~job:jid (fun () ->
                    C.Flow.run_result (R.Rng.create (seed + 1)) ~chip f))
          with
          | Error e -> Error e
          | Ok r ->
              let lattice = C.Synth.best_lattice r.C.Flow.impl in
              Ok
                (J.Obj
                   [ ("mapped", J.Bool r.C.Flow.bism.R.Bism.success);
                     ("functional", J.Bool r.C.Flow.functional);
                     ( "lattice",
                       J.Obj
                         [ ("rows", J.Int (Nxc_lattice.Lattice.rows lattice));
                           ("cols", J.Int (Nxc_lattice.Lattice.cols lattice)) ] );
                     ("defect_pct", J.Float (100.0 *. R.Defect.actual_density chip)) ]))
        ~exit_of:(fun v ->
          match J.member "functional" v with Some (J.Bool true) -> 0 | _ -> 5)

let plan_bist ~jid job rows cols =
  plan_sim job
    (fun () ->
      Trace.span ~job:jid "reliability.bist" (fun () ->
          let plan = R.Bist.plan ~rows ~cols in
          let universe = R.Fault_model.universe ~rows ~cols in
          let cov, _ = R.Bist.coverage plan universe in
          Ok
            (J.Obj
               [ ("configs", J.Int (R.Bist.num_configs plan));
                 ("group_configs", J.Int (R.Bisd.num_group_configs plan));
                 ("vectors", J.Int (R.Bist.num_vectors plan));
                 ("faults", J.Int (List.length universe));
                 ("coverage_pct", J.Float (100.0 *. cov)) ])))
    ~exit_of:exit_zero

let scheme_of_string = function
  | "blind" -> R.Bism.Blind
  | "greedy" -> R.Bism.Greedy
  | _ -> R.Bism.Hybrid 10

let plan_bism ~jid job n k density seed trials scheme =
  plan_sim job
    (fun () ->
      let profile = R.Defect.uniform density in
      if scheme = "sat" then
        let mc =
          Trace.span ~job:jid "reliability.sat_assign" (fun () ->
              Trace.folding_inner ~job:jid (fun () ->
                  R.Sat_assign.monte_carlo (R.Rng.create seed) ~trials ~n ~profile
                    ~k_rows:k ~k_cols:k))
        in
        Ok
          (J.Obj
             [ ("mapped", J.Int mc.R.Sat_assign.sa_mapped);
               ("trials", J.Int trials);
               ("unmappable", J.Int mc.R.Sat_assign.sa_unmappable);
               ("degraded", J.Int mc.R.Sat_assign.sa_degraded) ])
      else
        let mc, _ =
          Trace.span ~job:jid "reliability.bism" (fun () ->
              R.Bism.monte_carlo (R.Rng.create seed) (scheme_of_string scheme) ~trials
                ~n ~profile ~k_rows:k ~k_cols:k ~max_configs:1000)
        in
        Ok
          (J.Obj
             [ ("mapped", J.Int mc.R.Bism.mc_mapped);
               ("trials", J.Int trials);
               ("avg_configs", J.Float mc.R.Bism.mc_avg_configs) ]))
    ~exit_of:exit_zero

let plan_yield ~jid job n density seed trials =
  plan_sim job
    (fun () ->
      Trace.span ~job:jid "reliability.yield" (fun () ->
          let profile = R.Defect.uniform density in
          let mean = R.Yield_model.expected_max_k (R.Rng.create seed) ~trials ~n ~profile in
          let at y =
            R.Yield_model.guaranteed_k (R.Rng.create (seed + 1)) ~trials ~n ~profile
              ~min_yield:y
          in
          Ok
            (J.Obj
               [ ("mean_max_k", J.Float mean);
                 ("k_at_50", J.Int (at 0.5));
                 ("k_at_90", J.Int (at 0.9));
                 ("k_at_99", J.Int (at 0.99)) ])))
    ~exit_of:exit_zero

let plan_repair ~jid job rows cols spare_rows spare_cols density seed trials mode =
  plan_sim job
    (fun () ->
      let mc, _ =
        Trace.span ~job:jid "reliability.bira" (fun () ->
            R.Bira.monte_carlo (R.Rng.create seed)
              ~mode:(match mode with "greedy" -> R.Bira.Greedy | _ -> R.Bira.Exact)
              ~trials ~rows ~cols ~spare_rows ~spare_cols
              ~profile:(R.Defect.uniform density))
      in
      let overhead =
        Nxc_crossbar.Metrics.spare_overhead ~rows ~cols ~spare_rows ~spare_cols ()
      in
      Ok
        (J.Obj
           [ ("repaired", J.Int mc.R.Bira.mc_repaired);
             ("trials", J.Int trials);
             ("avg_spares", J.Float mc.R.Bira.mc_avg_spares);
             ("must_lines", J.Int mc.R.Bira.mc_must_lines);
             ("degraded_trials", J.Int mc.R.Bira.mc_degraded);
             ("area_overhead", J.Float overhead.Nxc_crossbar.Metrics.area_overhead) ]))
    ~exit_of:exit_zero

let plan ~jid (job : Svc.Job.t) =
  match job.Svc.Job.spec with
  | Svc.Job.Synth { expr; cover_backend } -> plan_synth ~jid job expr cover_backend
  | Svc.Job.Flow { expr; n; density; seed } -> plan_flow ~jid job expr n density seed
  | Svc.Job.Bist { rows; cols } -> plan_bist ~jid job rows cols
  | Svc.Job.Bism { n; k; density; seed; trials; scheme } ->
      plan_bism ~jid job n k density seed trials scheme
  | Svc.Job.Yield { n; density; seed; trials } -> plan_yield ~jid job n density seed trials
  | Svc.Job.Repair { rows; cols; spare_rows; spare_cols; density; seed; trials; mode } ->
      plan_repair ~jid job rows cols spare_rows spare_cols density seed trials mode

(* ------------------------------------------------------------------ *)
(* envelopes                                                          *)
(* ------------------------------------------------------------------ *)

let id_json = function Some i -> J.Str i | None -> J.Null

let ok_envelope (job : Svc.Job.t) (result, exit) =
  J.Obj
    [ ("id", id_json job.Svc.Job.id);
      ("kind", J.Str (Svc.Job.kind job));
      ("status", J.Str "ok");
      ("exit", J.Int exit);
      ("result", result) ]

let error_envelope (job : Svc.Job.t option) e =
  J.Obj
    [ ("id", id_json (Option.bind job (fun j -> j.Svc.Job.id)));
      ("kind", match job with Some j -> J.Str (Svc.Job.kind j) | None -> J.Null);
      ("status", J.Str "error");
      ("exit", J.Int (Error.exit_code e));
      ("error", J.Str (Error.to_string e)) ]

(* ------------------------------------------------------------------ *)
(* running the replay                                                  *)
(* ------------------------------------------------------------------ *)

type tag =
  | TBad of Svc.Job.t option * Error.t
  | TLead of Svc.Job.t * keyed
  | TFollow of Svc.Job.t * keyed

type state = SErr of Svc.Job.t option * Error.t | SVal of Svc.Job.t * keyed * J.t

let jid i = "p" ^ string_of_int i

let cache_call i f = Trace.span ~job:(jid i) "service.cache" f

(* one window through the engine's four passes; returns the printed
   envelopes *)
let run_window ~pool ~cache (items : (int * string) list) =
  let tags =
    Nxc_par.Pool.map ~pool
      (fun (i, line) ->
        let tag =
          match
            Trace.span ~job:(jid i) "service.job_parse" (fun () -> Svc.Job.of_line line)
          with
          | Error e -> TBad (None, e)
          | Ok job -> (
              match plan ~jid:(jid i) job with
              | Bad e -> TBad (Some job, e)
              | Keyed k -> TFollow (job, k))
        in
        (i, tag))
      items
  in
  let seen = Hashtbl.create 16 in
  let tags =
    List.map
      (fun (i, t) ->
        match t with
        | TLead (job, k) | TFollow (job, k) ->
            let cached = cache_call i (fun () -> Svc.Cache.peek cache k.key <> None) in
            if cached || Hashtbl.mem seen k.key then (i, TFollow (job, k))
            else begin
              Hashtbl.add seen k.key ();
              (i, TLead (job, k))
            end
        | TBad _ -> (i, t))
      tags
  in
  let leaders =
    List.filter_map (function i, TLead (_, k) -> Some (i, k) | _ -> None) tags
  in
  let computed = Nxc_par.Pool.map ~pool (fun (_, k) -> k.compute ()) leaders in
  let computed = ref computed in
  let add i key value =
    cache_call i (fun () -> Svc.Cache.add cache key value);
    Atomic.incr cache_writes
  in
  let states =
    List.map
      (fun (i, t) ->
        match t with
        | TBad (job, e) -> (i, SErr (job, e))
        | TLead (job, k) -> (
            ignore (cache_call i (fun () -> Svc.Cache.find cache k.key) : J.t option);
            let r = List.hd !computed in
            computed := List.tl !computed;
            match r with
            | Ok value ->
                add i k.key value;
                (i, SVal (job, k, value))
            | Error e -> (i, SErr (Some job, e)))
        | TFollow (job, k) -> (
            match cache_call i (fun () -> Svc.Cache.find cache k.key) with
            | Some value -> (i, SVal (job, k, value))
            | None -> (
                match k.compute () with
                | Ok value ->
                    add i k.key value;
                    (i, SVal (job, k, value))
                | Error e -> (i, SErr (Some job, e)))))
      tags
  in
  Nxc_par.Pool.map ~pool
    (fun (i, st) ->
      Trace.span ~job:(jid i) "service.render" (fun () ->
          let env =
            match st with
            | SErr (job, e) -> error_envelope job e
            | SVal (job, k, value) -> (
                match k.render value with
                | Ok r -> ok_envelope job r
                | Error e -> error_envelope (Some job) e)
          in
          (i, J.to_string env)))
    states

(* Replay [lines] window by window.  [memo] mirrors [Engine.Stream]'s
   response memo (an exact repeat of an answered line is answered from
   it); the engine's memo is an LRU, which never evicts at the sizes
   used here.  Returns every job's envelope as printed. *)
let run ~pool ~cache ~window ~memo (lines : string array) =
  let n = Array.length lines in
  let envelopes = Array.make n "" in
  let answered = Hashtbl.create 256 in
  Nxc_obs.Span.enable ();
  let i = ref 0 in
  while !i < n do
    let hi = min n (!i + window) in
    let items = List.init (hi - !i) (fun k -> (!i + k, lines.(!i + k))) in
    let misses =
      if not memo then items
      else
        List.filter
          (fun (j, line) ->
            match
              Trace.span ~job:(jid j) "service.memo" (fun () ->
                  Hashtbl.find_opt answered line)
            with
            | Some env ->
                Atomic.incr memo_hits;
                envelopes.(j) <- env;
                false
            | None ->
                Atomic.incr memo_misses;
                true)
          items
    in
    List.iter
      (fun (j, env) ->
        envelopes.(j) <- env;
        if memo then Hashtbl.replace answered lines.(j) envelopes.(j))
      (run_window ~pool ~cache misses);
    i := hi
  done;
  Nxc_obs.Span.disable ();
  Nxc_obs.Span.reset ();
  envelopes
