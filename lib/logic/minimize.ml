type method_ = Exact | Heuristic | Espresso_loop | Auto

let exact_threshold_vars = 8

module Obs = Nxc_obs
module Guard = Nxc_guard

let m_sop_calls = Obs.Metrics.counter "minimize.sop_calls"
let m_degraded = Obs.Metrics.counter "minimize.degraded"

let method_name = function
  | Exact -> "exact"
  | Heuristic -> "heuristic"
  | Espresso_loop -> "espresso"
  | Auto -> "auto"

type outcome = { cover : Cover.t; degraded : bool }

(* The guarded core.  Every path either returns a function-equivalent
   cover or a typed error; the [degraded] flag records that a cheaper
   method than the requested one produced the cover. *)
let sop_table_with guard ~method_ ?cover_backend tt =
  Obs.Metrics.incr m_sop_calls;
  Obs.Span.with_ ~name:"minimize.sop"
    ~attrs:(fun () ->
      [ ("method", Obs.Json.Str (method_name method_));
        ("n", Obs.Json.Int (Truth_table.n_vars tt)) ])
  @@ fun () ->
  let n = Truth_table.n_vars tt in
  let heuristic () = Isop.isop tt in
  (* Exact QM, degrading to ISOP when the guard trips during prime
     generation (the exponential part).  Under a [Fail] policy the trip
     is reported instead. *)
  let exact () =
    match
      Qm.minimize_result ~guard ?cover_backend ~n (Truth_table.minterms tt)
    with
    | Ok (cover, _) -> Ok { cover; degraded = false }
    | Error e -> (
        match Guard.Budget.policy guard with
        | Guard.Budget.Fail -> Error e
        | Guard.Budget.Degrade ->
            Guard.Budget.degrade "qm_to_isop";
            Obs.Metrics.incr m_degraded;
            Ok { cover = heuristic (); degraded = true })
  in
  let espresso_loop () =
    (* the loop itself degrades internally (anytime, best-so-far) *)
    let before = Guard.Budget.exhausted guard in
    let cover = Espresso.minimize ~guard (heuristic ()) in
    let degraded = (not before) && Guard.Budget.exhausted guard in
    if degraded then Obs.Metrics.incr m_degraded;
    Ok { cover; degraded }
  in
  let result =
    match method_ with
    | Exact -> exact ()
    | Heuristic -> Ok { cover = heuristic (); degraded = false }
    | Espresso_loop -> espresso_loop ()
    | Auto ->
        if n <= exact_threshold_vars then exact ()
        else Ok { cover = heuristic (); degraded = false }
  in
  match result with
  | Error _ as e -> e
  | Ok r ->
      assert (Truth_table.equal (Truth_table.of_cover r.cover) tt);
      Ok r

let sop_table_result ?(method_ = Auto) ?guard ?cover_backend tt =
  sop_table_with (Guard.Budget.resolve guard) ~method_ ?cover_backend tt

let sop_result ?method_ ?guard ?cover_backend f =
  sop_table_result ?method_ ?guard ?cover_backend (Boolfunc.table f)

(* Total variants: never fail on budget — force the degradation path
   regardless of the guard's policy by running the core under an
   explicit [Degrade] view of the same budget. *)
let sop_table ?(method_ = Auto) ?guard tt =
  let guard = Guard.Budget.resolve guard in
  match sop_table_with (Guard.Budget.degrading guard) ~method_ tt with
  | Ok { cover; _ } -> cover
  | Error _ ->
      (* unreachable: under Degrade every budget path falls back *)
      Isop.isop tt

let sop ?method_ ?guard f = sop_table ?method_ ?guard (Boolfunc.table f)

let dual_sop ?method_ ?guard f = sop ?method_ ?guard (Boolfunc.dual f)

let verify cover f =
  Truth_table.equal (Truth_table.of_cover cover) (Boolfunc.table f)

let num_products ?method_ f = Cover.num_cubes (sop ?method_ f)
