(* Job engine: sequential planning + cache resolution on the calling
   domain, parallel computation of cache misses on the pool.

   The cold and warm paths share one rendering function per kind (the
   leader computes the *cache value*, then renders it exactly like a
   hit would), so envelopes are byte-identical whether they were
   computed, deduplicated within the batch, or served from a warm
   on-disk cache. *)

open Nxc_logic
module J = Nxc_obs.Json
module Error = Nxc_guard.Error
module Budget = Nxc_guard.Budget
module R = Nxc_reliability
module C = Nxc_core

let m_jobs = Nxc_obs.Metrics.counter "service.jobs"
let m_errors = Nxc_obs.Metrics.counter "service.errors"

(* Per-job and per-stage latency distributions, in nanoseconds.  HDR
   instruments so stats/serve can answer with p50/p95/p99.  Stage
   nesting: [render] includes the cache-hit [verify] re-check; [job] is
   the sequential resolution of one job (a leader's compute is recorded
   under [compute] only, so [job] stays comparable across --jobs N). *)
let m_lat_job = Nxc_obs.Metrics.hdr "service.latency.job"
let m_lat_parse = Nxc_obs.Metrics.hdr "service.latency.parse"
let m_lat_key = Nxc_obs.Metrics.hdr "service.latency.key"
let m_lat_compute = Nxc_obs.Metrics.hdr "service.latency.compute"
let m_lat_verify = Nxc_obs.Metrics.hdr "service.latency.verify"
let m_lat_render = Nxc_obs.Metrics.hdr "service.latency.render"

let timed h f =
  let t0 = Nxc_obs.Clock.now_ns () in
  let r = f () in
  Nxc_obs.Metrics.hdr_observe h (Nxc_obs.Clock.now_ns () - t0);
  r

type outcome = { envelope : J.t; exit_code : int; cached : bool }

(* a planned job: either dead on arrival, or keyed with a way to
   compute the cache value and a way to render a value into the result
   payload (plus its exit-code equivalent) *)
type keyed = {
  key : string;
  compute : unit -> (J.t, Error.t) result;
  render : J.t -> (J.t * int, Error.t) result;
}

type plan = Bad of Error.t | Keyed of keyed

let with_job_budget (job : Job.t) f =
  match job.Job.budget_steps with
  | Some steps ->
      let b = Budget.create ~label:"job" ~steps () in
      Budget.with_current b f
  | None -> f ()

(* ------------------------------------------------------------------ *)
(* synth jobs: cover cache keyed by the exact table                    *)
(* ------------------------------------------------------------------ *)

let cube_to_chars n cube =
  String.init n (fun i ->
      match Cube.polarity_of cube i with
      | Some Cube.Pos -> '1'
      | Some Cube.Neg -> '0'
      | None -> '-')

let cube_of_chars s =
  let n = String.length s in
  let lits = ref [] in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> lits := (i, Cube.Pos) :: !lits
      | '0' -> lits := (i, Cube.Neg) :: !lits
      | '-' -> ()
      | _ -> failwith "bad cube char")
    s;
  Cube.of_literals n !lits

let cover_to_json c =
  J.List (List.map (fun cube -> J.Str (cube_to_chars (Cover.n_vars c) cube)) (Cover.cubes c))

let cover_of_json n = function
  | J.List cubes ->
      Cover.make n
        (List.map
           (function
             | J.Str s when String.length s = n -> cube_of_chars s
             | _ -> failwith "bad cube")
           cubes)
  | _ -> failwith "bad cover"

let dims rows cols = J.Obj [ ("rows", J.Int rows); ("cols", J.Int cols) ]

let corrupt () = Error (Error.internal "corrupt cache entry for synth job")

let plan_synth (job : Job.t) expr cover_backend =
  match Parse.expr_result expr with
  | Error e -> Bad e
  | Ok f ->
      let n = Boolfunc.n_vars f in
      (* the key names the function up to output phase; the stored
         covers are of [f] itself, in its own input coordinates *)
      let tr, canon = Npn.canonical (Boolfunc.table f) in
      let phase = if tr.Npn.output_neg then "-" else "+" in
      let budget_tag =
        match job.Job.budget_steps with
        | Some b -> ":b" ^ string_of_int b
        | None -> ""
      in
      (* both backends find a minimum cover, but not necessarily the
         same one — keep their cache entries apart *)
      let backend, backend_tag =
        match cover_backend with
        | "sat" -> (Qm.Sat, ":sat")
        | _ -> (Qm.Bnb, "")
      in
      let key = "npn:" ^ Npn.table_key canon ^ phase ^ budget_tag ^ backend_tag in
      let compute () =
        with_job_budget job @@ fun () ->
        match
          ( Minimize.sop_result ~cover_backend:backend f,
            Minimize.sop_result ~cover_backend:backend (Boolfunc.dual f) )
        with
        | Ok c, Ok d ->
            Ok
              (J.Obj
                 [ ("n", J.Int n);
                   ("cover", cover_to_json c.Minimize.cover);
                   ("dual", cover_to_json d.Minimize.cover);
                   ("degraded", J.Bool (c.Minimize.degraded || d.Minimize.degraded)) ]
              )
        | Error e, _ | _, Error e -> Error e
      in
      let render value =
        match
          ( J.member "cover" value, J.member "dual" value,
            J.member "degraded" value )
        with
        | Some cj, Some dj, Some (J.Bool degraded) -> (
            match (cover_of_json n cj, cover_of_json n dj) with
            | exception _ -> corrupt ()
            | cover, dual ->
                if
                  not
                    (timed m_lat_verify (fun () ->
                         Minimize.verify cover f
                         && Minimize.verify dual (Boolfunc.dual f)))
                then corrupt ()
                else
                  let p = Cover.num_cubes cover in
                  let pd = Cover.num_cubes dual in
                  let lits = List.length (Cover.distinct_literals cover) in
                  Ok
                    ( J.Obj
                        [ ("n", J.Int n);
                          ("products", J.Int p);
                          ("dual_products", J.Int pd);
                          ("distinct_literals", J.Int lits);
                          ("cover", J.Str (Cover.to_string cover));
                          (* the paper's Fig. 3 / Fig. 5 size formulas *)
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
(* seeded simulation jobs: whole payload cached under the spec key     *)
(* ------------------------------------------------------------------ *)

let flow_payload (chip, r) =
  let lattice = C.Synth.best_lattice r.C.Flow.impl in
  J.Obj
    [ ("mapped", J.Bool r.C.Flow.bism.R.Bism.success);
      ("functional", J.Bool r.C.Flow.functional);
      ( "lattice",
        dims (Nxc_lattice.Lattice.rows lattice) (Nxc_lattice.Lattice.cols lattice)
      );
      ("defect_pct", J.Float (100.0 *. R.Defect.actual_density chip)) ]

let bist_payload (b : Sim.bist) =
  J.Obj
    [ ("configs", J.Int (R.Bist.num_configs b.plan));
      ("group_configs", J.Int (R.Bisd.num_group_configs b.plan));
      ("vectors", J.Int (R.Bist.num_vectors b.plan));
      ("faults", J.Int b.faults);
      ("coverage_pct", J.Float (100.0 *. b.coverage)) ]

let bism_payload ~trials = function
  | Sim.Heuristic mc ->
      J.Obj
        [ ("mapped", J.Int mc.R.Bism.mc_mapped); ("trials", J.Int trials);
          ("avg_configs", J.Float mc.R.Bism.mc_avg_configs) ]
  | Sim.Exact mc ->
      J.Obj
        [ ("mapped", J.Int mc.R.Sat_assign.sa_mapped); ("trials", J.Int trials);
          ("unmappable", J.Int mc.R.Sat_assign.sa_unmappable);
          ("degraded", J.Int mc.R.Sat_assign.sa_degraded) ]

let yield_payload (y : Sim.yield) =
  J.Obj
    (("mean_max_k", J.Float y.mean_max_k)
    :: List.map
         (fun (level, k) ->
           (Printf.sprintf "k_at_%.0f" (100.0 *. level), J.Int k))
         y.guaranteed_k)

let repair_payload ~trials ((mc : R.Bira.mc), overhead) =
  J.Obj
    [ ("repaired", J.Int mc.mc_repaired); ("trials", J.Int trials);
      ("avg_spares", J.Float mc.mc_avg_spares);
      ("must_lines", J.Int mc.mc_must_lines);
      ("degraded_trials", J.Int mc.mc_degraded);
      ( "area_overhead",
        J.Float overhead.Nxc_crossbar.Metrics.area_overhead ) ]

(* a seeded simulation: its whole payload is the cache value *)
let plan_sim (job : Job.t) ?(exit_of = fun _ -> 0) compute =
  Keyed
    { key = Job.cache_key job;
      compute = (fun () -> with_job_budget job compute);
      render = (fun value -> Ok (value, exit_of value)) }

(* [job] comes from {!Job.of_line}, which has already validated it *)
let plan (job : Job.t) =
  match job.Job.spec with
  | Job.Synth { expr; cover_backend } -> plan_synth job expr cover_backend
  | Job.Flow { expr; n; density; seed } -> (
      match Parse.expr_result expr with
      | Error e -> Bad e
      | Ok f ->
          plan_sim job
            (fun () -> Result.map flow_payload (Sim.flow ~n ~density ~seed f))
            ~exit_of:(fun value ->
              match J.member "functional" value with
              | Some (J.Bool true) -> 0
              | _ -> 5))
  | Job.Bist { rows; cols } ->
      plan_sim job (fun () -> Ok (bist_payload (Sim.bist ~rows ~cols)))
  | Job.Bism { n; k; density; seed; trials; scheme } ->
      plan_sim job (fun () ->
          Ok
            (bism_payload ~trials
               (Sim.bism ~n ~k ~density ~seed ~trials scheme)))
  | Job.Yield { n; density; seed; trials } ->
      plan_sim job (fun () ->
          Ok (yield_payload (Sim.yield ~n ~density ~seed ~trials ())))
  | Job.Repair { rows; cols; spare_rows; spare_cols; density; seed; trials;
                 mode } ->
      plan_sim job (fun () ->
          Ok
            (repair_payload ~trials
               (Sim.repair ~rows ~cols ~spare_rows ~spare_cols ~density ~seed
                  ~trials mode)))

(* ------------------------------------------------------------------ *)
(* envelopes                                                           *)
(* ------------------------------------------------------------------ *)

let id_json = function Some i -> J.Str i | None -> J.Null

let ok_envelope ?id ~kind (result, exit_code) ~cached =
  Nxc_obs.Metrics.incr m_jobs;
  Nxc_obs.Log.event ~level:Nxc_obs.Log.Debug ~name:"service.job"
    [ ("id", id_json id); ("kind", J.Str kind); ("exit", J.Int exit_code);
      ("cached", J.Bool cached) ];
  { envelope =
      J.Obj
        [ ("id", id_json id); ("kind", J.Str kind); ("status", J.Str "ok");
          ("exit", J.Int exit_code); ("result", result) ];
    exit_code;
    cached }

let error_envelope ?id ?kind e =
  Nxc_obs.Metrics.incr m_jobs;
  Nxc_obs.Metrics.incr m_errors;
  Error.count e;
  let exit_code = Error.exit_code e in
  Nxc_obs.Log.event ~level:Nxc_obs.Log.Error ~name:"service.error"
    [ ("id", id_json id);
      ("kind", match kind with Some k -> J.Str k | None -> J.Null);
      ("exit", J.Int exit_code);
      ("error", J.Str (Error.to_string e)) ];
  { envelope =
      J.Obj
        [ ("id", id_json id);
          ("kind", match kind with Some k -> J.Str k | None -> J.Null);
          ("status", J.Str "error"); ("exit", J.Int exit_code);
          ("error", J.Str (Error.to_string e)) ];
    exit_code;
    cached = false }

(* ------------------------------------------------------------------ *)
(* drivers                                                             *)
(* ------------------------------------------------------------------ *)

(* tags produced by the sequential planning pass, in job order;
   [prep_ns] is what parsing + keying the job cost, folded into the
   job's end-to-end latency at resolution time *)
type tag =
  | TBad of Job.t option * Error.t
  | TLead of Job.t * keyed
  | TFollow of Job.t * keyed

type tagged = { prep_ns : int; tag : tag }

(* resolution of one job after the sequential cache pass: either its
   error is already decided, or a cache value awaits rendering *)
type rstate =
  | RErr of Job.t option * Error.t
  | RVal of Job.t * keyed * J.t * bool  (** cached? *)

type resolved = { r_prep_ns : int; r_state : rstate }

let run_tagged ?pool ?cache tags =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  Nxc_obs.Span.with_ ~name:"service.batch" @@ fun () ->
  (* second pass: mark the first uncached job of each key a leader *)
  let seen = Hashtbl.create 16 in
  let tags =
    List.map
      (fun t ->
        match t.tag with
        | TLead (job, k) | TFollow (job, k) ->
            if Cache.peek cache k.key <> None || Hashtbl.mem seen k.key then
              { t with tag = TFollow (job, k) }
            else begin
              Hashtbl.add seen k.key ();
              { t with tag = TLead (job, k) }
            end
        | TBad _ -> t)
      tags
  in
  let leaders =
    List.filter_map
      (fun t -> match t.tag with TLead (_, k) -> Some k | _ -> None)
      tags
  in
  let computed =
    Nxc_par.Pool.map ?pool
      (fun k ->
        Nxc_obs.Span.with_ ~name:"service.compute" (fun () ->
            timed m_lat_compute k.compute))
      leaders
  in
  (* cache pass, on the calling domain, in job order: all cache reads
     and writes happen here, so hit/miss assignment is deterministic *)
  let remaining = ref computed in
  let next () =
    match !remaining with
    | r :: rest ->
        remaining := rest;
        r
    | [] -> assert false
  in
  let resolved =
    List.map
      (fun { prep_ns; tag } ->
        let t0 = Nxc_obs.Clock.now_ns () in
        let st =
          match tag with
          | TBad (job, e) -> RErr (job, e)
          | TLead (job, k) -> (
              ignore (Cache.find cache k.key : J.t option) (* counts the miss *);
              match next () with
              | Ok value ->
                  Cache.add cache k.key value;
                  RVal (job, k, value, false)
              | Error e -> RErr (Some job, e))
          | TFollow (job, k) -> (
              match Cache.find cache k.key with
              | Some value -> RVal (job, k, value, true)
              | None -> (
                  (* its leader failed to populate the key: compute here
                     on the calling domain *)
                  match
                    Nxc_obs.Span.with_ ~name:"service.compute"
                      ~attrs:(fun () -> [ ("kind", J.Str (Job.kind job)) ])
                      (fun () -> timed m_lat_compute k.compute)
                  with
                  | Ok value ->
                      Cache.add cache k.key value;
                      RVal (job, k, value, false)
                  | Error e -> RErr (Some job, e)))
        in
        { r_prep_ns = prep_ns + (Nxc_obs.Clock.now_ns () - t0); r_state = st })
      tags
  in
  (* render pass, pooled: rendering is a pure function of the cache
     value and the request's own function (it re-verifies covers), so
     followers render in parallel without touching the envelope *)
  let rendered =
    Nxc_par.Pool.map ?pool
      (fun r ->
        match r.r_state with
        | RErr _ -> (r, None, 0)
        | RVal (_, k, value, _) ->
            let t0 = Nxc_obs.Clock.now_ns () in
            let res = timed m_lat_render (fun () -> k.render value) in
            (r, Some res, Nxc_obs.Clock.now_ns () - t0))
      resolved
  in
  (* envelope pass, on the calling domain, in job order: counters and
     log events fire in output order *)
  List.map
    (fun (r, res, render_ns) ->
      let t0 = Nxc_obs.Clock.now_ns () in
      let out =
        match (r.r_state, res) with
        | RErr (job, e), _ ->
            error_envelope
              ?id:(Option.bind job (fun j -> j.Job.id))
              ?kind:(Option.map Job.kind job)
              e
        | RVal (job, _, _, cached), Some (Ok rendered) ->
            ok_envelope ?id:job.Job.id ~kind:(Job.kind job) rendered ~cached
        | RVal (job, _, _, _), Some (Error e) ->
            error_envelope ?id:job.Job.id ~kind:(Job.kind job) e
        | RVal _, None -> assert false
      in
      Nxc_obs.Metrics.hdr_observe m_lat_job
        (r.r_prep_ns + render_ns + (Nxc_obs.Clock.now_ns () - t0));
      out)
    rendered

let tag_line line =
  let t0 = Nxc_obs.Clock.now_ns () in
  let parsed = Job.of_line line in
  let t1 = Nxc_obs.Clock.now_ns () in
  Nxc_obs.Metrics.hdr_observe m_lat_parse (t1 - t0);
  match parsed with
  | Error e -> { prep_ns = t1 - t0; tag = TBad (None, e) }
  | Ok job ->
      let tag =
        match plan job with
        | Bad e -> TBad (Some job, e)
        | Keyed k -> TFollow (job, k)
      in
      let t2 = Nxc_obs.Clock.now_ns () in
      Nxc_obs.Metrics.hdr_observe m_lat_key (t2 - t1);
      { prep_ns = t2 - t0; tag }

(* planning (parse + keying) is pure, so it runs on the pool too;
   Pool.map keeps results, metric merges and exceptions in job order *)
let run_lines ?pool ?cache lines =
  run_tagged ?pool ?cache (Nxc_par.Pool.map ?pool tag_line lines)

let batch_exit outcomes =
  match List.find_opt (fun o -> o.exit_code <> 0) outcomes with
  | Some o -> o.exit_code
  | None -> 0

(* ------------------------------------------------------------------ *)
(* pipelined streaming: bounded window, response memo, admission       *)
(* ------------------------------------------------------------------ *)

let m_adm_admitted = Nxc_obs.Metrics.counter "service.admission.admitted"
let m_adm_rejected = Nxc_obs.Metrics.counter "service.admission.rejected"
let m_memo_hits = Nxc_obs.Metrics.counter "service.stream.memo_hits"
let m_memo_misses = Nxc_obs.Metrics.counter "service.stream.memo_misses"
let m_windows = Nxc_obs.Metrics.counter "service.stream.windows"
let m_lat_stream = Nxc_obs.Metrics.hdr "service.latency.stream"

module Stream = struct
  (* envelopes are deterministic functions of the request line, so a
     line-level response memo is sound: a repeat of a line the stream
     already answered is served without planning, keying or rendering *)
  type memo_entry = {
    mutable env : J.t;
    mutable exit_c : int;
    mutable stamp : int;
  }

  type entry =
    | Queued of { line : string; t_enq : int }
    | Ready of { outcome : outcome; t_enq : int }

  type t = {
    pool : Nxc_par.Pool.t option;
    cache : Cache.t;
    mutable window : int;
    deadline_ms : float option;
    memo : (string, memo_entry) Hashtbl.t;
    mutable memo_tick : int;
    mutable rev_pending : entry list;
    mutable queued : int;  (* Queued entries in rev_pending *)
    mutable ewma_ns : float;  (* smoothed per-job service time *)
  }

  (* entries the response memo keeps before evicting its LRU line *)
  let memo_capacity = 1024

  let create ?pool ?cache ?window ?deadline_ms () =
    let cache = match cache with Some c -> c | None -> Cache.create () in
    let slots =
      match pool with Some p -> Nxc_par.Pool.slots p | None -> 1
    in
    let window =
      match window with Some w -> max 1 w | None -> 4 * slots
    in
    { pool;
      cache;
      window;
      deadline_ms;
      memo = Hashtbl.create 64;
      memo_tick = 0;
      rev_pending = [];
      queued = 0;
      ewma_ns = 0.0 }

  let window t = t.window
  let pending t = List.length t.rev_pending

  let memo_find t line =
    match Hashtbl.find_opt t.memo line with
    | Some e ->
        t.memo_tick <- t.memo_tick + 1;
        e.stamp <- t.memo_tick;
        Some (e.env, e.exit_c)
    | None -> None

  let memo_add t line env exit_c =
    match Hashtbl.find_opt t.memo line with
    | Some e ->
        t.memo_tick <- t.memo_tick + 1;
        e.stamp <- t.memo_tick;
        e.env <- env;
        e.exit_c <- exit_c
    | None ->
        if Hashtbl.length t.memo >= memo_capacity then begin
          let victim = ref None in
          Hashtbl.iter
            (fun k e ->
              match !victim with
              | Some (_, s) when s <= e.stamp -> ()
              | _ -> victim := Some (k, e.stamp))
            t.memo;
          match !victim with
          | Some (k, _) -> Hashtbl.remove t.memo k
          | None -> ()
        end;
        t.memo_tick <- t.memo_tick + 1;
        Hashtbl.add t.memo line { env; exit_c; stamp = t.memo_tick }

  let flush t =
    match List.rev t.rev_pending with
    | [] -> []
    | entries ->
        Nxc_obs.Metrics.incr m_windows;
        t.rev_pending <- [];
        t.queued <- 0;
        let t_start = Nxc_obs.Clock.now_ns () in
        (* resolve each slot: already-decided outcome, memo hit, or a
           miss left for the pooled engine batch *)
        let slots =
          List.map
            (function
              | Ready { outcome; t_enq } -> (Some outcome, t_enq, None)
              | Queued { line; t_enq } -> (
                  match memo_find t line with
                  | Some (env, exit_c) ->
                      Nxc_obs.Metrics.incr m_memo_hits;
                      Nxc_obs.Metrics.incr m_jobs;
                      if exit_c <> 0 then Nxc_obs.Metrics.incr m_errors;
                      ( Some { envelope = env; exit_code = exit_c; cached = true },
                        t_enq,
                        None )
                  | None ->
                      Nxc_obs.Metrics.incr m_memo_misses;
                      (None, t_enq, Some line)))
            entries
        in
        let miss_lines = List.filter_map (fun (_, _, l) -> l) slots in
        let miss_outs = run_lines ?pool:t.pool ~cache:t.cache miss_lines in
        List.iter2
          (fun line out -> memo_add t line out.envelope out.exit_code)
          miss_lines miss_outs;
        let t_done = Nxc_obs.Clock.now_ns () in
        if miss_lines <> [] then begin
          let per =
            float_of_int (t_done - t_start)
            /. float_of_int (List.length miss_lines)
          in
          t.ewma_ns <-
            (if t.ewma_ns = 0.0 then per
             else (0.8 *. t.ewma_ns) +. (0.2 *. per))
        end;
        let remaining = ref miss_outs in
        List.map
          (fun (ready, t_enq, _) ->
            let out =
              match ready with
              | Some o -> o
              | None -> (
                  match !remaining with
                  | o :: rest ->
                      remaining := rest;
                      o
                  | [] -> assert false)
            in
            Nxc_obs.Metrics.hdr_observe m_lat_stream (t_done - t_enq);
            out)
          slots

  let push t line =
    let now = Nxc_obs.Clock.now_ns () in
    let reject e =
      let id, kind =
        match Job.of_line line with
        | Ok j -> (j.Job.id, Some (Job.kind j))
        | Error _ -> (None, None)
      in
      Nxc_obs.Metrics.incr m_adm_rejected;
      Ready { outcome = error_envelope ?id ?kind e; t_enq = now }
    in
    let entry =
      match t.deadline_ms with
      | Some deadline
        when t.ewma_ns *. float_of_int t.queued >= deadline *. 1e6 ->
          (* the queue ahead cannot drain before the deadline: reject
             up-front with the budget-exhaustion contract (exit 4) *)
          reject
            (`Budget_exhausted
               { Error.label = "admission";
                 steps = t.queued;
                 elapsed_ns =
                   int_of_float (t.ewma_ns *. float_of_int t.queued) })
      | _ ->
          Nxc_obs.Metrics.incr m_adm_admitted;
          (* backpressure: every admitted job charges the ambient
             budget one step, so a budget-bounded serve run winds down
             instead of queueing unboundedly *)
          let b = Budget.current () in
          if Budget.step b then Queued { line; t_enq = now }
          else begin
            match Budget.policy b with
            | Budget.Fail -> reject (Budget.error b)
            | Budget.Degrade ->
                Budget.degrade "stream";
                t.window <- 1;
                Queued { line; t_enq = now }
          end
    in
    (match entry with
    | Queued _ -> t.queued <- t.queued + 1
    | Ready _ -> ());
    t.rev_pending <- entry :: t.rev_pending;
    (* flush when the window fills — or when nothing is actually queued
       (pure rejections), so a rejected job is answered immediately *)
    if t.queued >= t.window || t.queued = 0 then flush t else []
end
