let exact_threshold_vars = 8

module Obs = Nxc_obs
module Guard = Nxc_guard

let m_sop_calls = Obs.Metrics.counter "minimize.sop_calls"
let m_degraded = Obs.Metrics.counter "minimize.degraded"

type outcome = { cover : Cover.t; degraded : bool }

(* The guarded core.  Every path either returns a function-equivalent
   cover or a typed error; the [degraded] flag records that the cover
   is not known to be minimum: a covering fallback or the ISOP
   fallback produced it. *)
let sop_table_with guard ?cover_backend tt =
  Obs.Metrics.incr m_sop_calls;
  Obs.Span.with_ ~name:"minimize.sop"
    ~attrs:(fun () -> [ ("n", Obs.Json.Int (Truth_table.n_vars tt)) ])
  @@ fun () ->
  let n = Truth_table.n_vars tt in
  let degraded cover =
    Obs.Metrics.incr m_degraded;
    Ok { cover; degraded = true }
  in
  (* Exact QM for small functions, degrading to ISOP when the guard
     trips during prime generation (the exponential part).  Under a
     [Fail] policy the trip is reported instead. *)
  let result =
    if n > exact_threshold_vars then
      Ok { cover = Isop.isop tt; degraded = false }
    else
      match
        Qm.minimize_result ~guard ?cover_backend ~n (Truth_table.minterms tt)
      with
      | Ok (cover, { Qm.exact = true; _ }) -> Ok { cover; degraded = false }
      | Ok (cover, _) -> degraded cover
      | Error e -> (
          match Guard.Budget.policy guard with
          | Guard.Budget.Fail -> Error e
          | Guard.Budget.Degrade ->
              Guard.Budget.degrade "qm_to_isop";
              degraded (Isop.isop tt))
  in
  match result with
  | Error _ as e -> e
  | Ok r ->
      assert (Truth_table.equal (Truth_table.of_cover r.cover) tt);
      Ok r

let sop_table_result ?guard ?cover_backend tt =
  sop_table_with (Guard.Budget.resolve guard) ?cover_backend tt

let sop_result ?guard ?cover_backend f =
  sop_table_result ?guard ?cover_backend (Boolfunc.table f)

(* Total variants: never fail on budget — force the degradation path
   regardless of the guard's policy by running the core under an
   explicit [Degrade] view of the same budget. *)
let sop_table ?guard tt =
  let guard = Guard.Budget.resolve guard in
  match sop_table_with (Guard.Budget.degrading guard) tt with
  | Ok { cover; _ } -> cover
  | Error _ ->
      (* unreachable: under Degrade every budget path falls back *)
      Isop.isop tt

let sop ?guard f = sop_table ?guard (Boolfunc.table f)

let dual_sop ?guard f = sop ?guard (Boolfunc.dual f)

let verify cover f =
  Truth_table.equal (Truth_table.of_cover cover) (Boolfunc.table f)
