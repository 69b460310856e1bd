(* Built-in redundancy analysis: must-repair fixpoint, then exact
   branch-and-bound (guard-budgeted, degrading to greedy) or greedy
   most-defects-first spare allocation.  See bira.mli for the model. *)

module Obs = Nxc_obs
module Guard = Nxc_guard

let m_runs = Obs.Metrics.counter "bira.runs"
let m_repaired = Obs.Metrics.counter "bira.repaired"
let m_unrepairable = Obs.Metrics.counter "bira.unrepairable"
let m_must_rows = Obs.Metrics.counter "bira.must_repair_rows"
let m_must_cols = Obs.Metrics.counter "bira.must_repair_cols"
let m_nodes = Obs.Metrics.counter "bira.bnb_nodes"
let m_spares = Obs.Metrics.counter "bira.spares_used"
let h_analyze = Obs.Metrics.hdr "bira.latency.analyze"

type mode = Greedy | Exact

type solution = {
  repair_rows : int list;
  repair_cols : int list;
  must_rows : int list;
  must_cols : int list;
  degraded : bool;
}

let spares_used s = List.length s.repair_rows + List.length s.repair_cols

exception Unrepairable of string

(* Mutable analysis state over the full physical array: keep-masks for
   the surviving lines plus the remaining spare budgets. *)
type state = {
  chip : Defect.t;
  keep_r : bool array;
  keep_c : bool array;
  row_cnt : int array;  (* defects per surviving row, at surviving cols *)
  col_cnt : int array;
  mutable rem_r : int;  (* spare rows still available *)
  mutable rem_c : int;
}

let recount st =
  let n_r = Defect.rows st.chip and n_c = Defect.cols st.chip in
  Array.fill st.row_cnt 0 n_r 0;
  Array.fill st.col_cnt 0 n_c 0;
  let total = ref 0 in
  for r = 0 to n_r - 1 do
    if st.keep_r.(r) then
      for c = 0 to n_c - 1 do
        if st.keep_c.(c) && Defect.is_defective st.chip r c then begin
          st.row_cnt.(r) <- st.row_cnt.(r) + 1;
          st.col_cnt.(c) <- st.col_cnt.(c) + 1;
          incr total
        end
      done
  done;
  !total

(* Phase 1: a surviving row with more defects than the column dimension
   has remaining spares can only be fixed by replacing the row itself
   (and symmetrically).  Deleting a line changes the counts and the
   budgets, so iterate to a fixpoint; a budget overflow here is a proof
   of unrepairability. *)
let must_repair st =
  let n_r = Defect.rows st.chip and n_c = Defect.cols st.chip in
  let must_r = ref [] and must_c = ref [] in
  let rec fix () =
    ignore (recount st : int);
    let victim = ref None in
    (try
       for r = 0 to n_r - 1 do
         if st.keep_r.(r) && st.row_cnt.(r) > st.rem_c then begin
           victim := Some (`Row r);
           raise Exit
         end
       done;
       for c = 0 to n_c - 1 do
         if st.keep_c.(c) && st.col_cnt.(c) > st.rem_r then begin
           victim := Some (`Col c);
           raise Exit
         end
       done
     with Exit -> ());
    match !victim with
    | None -> ()
    | Some (`Row r) ->
        if st.rem_r = 0 then
          raise
            (Unrepairable
               (Printf.sprintf
                  "row %d needs replacement but no spare rows remain" r));
        st.keep_r.(r) <- false;
        st.rem_r <- st.rem_r - 1;
        must_r := r :: !must_r;
        fix ()
    | Some (`Col c) ->
        if st.rem_c = 0 then
          raise
            (Unrepairable
               (Printf.sprintf
                  "column %d needs replacement but no spare columns remain" c));
        st.keep_c.(c) <- false;
        st.rem_c <- st.rem_c - 1;
        must_c := c :: !must_c;
        fix ()
  in
  fix ();
  (List.rev !must_r, List.rev !must_c)

(* Phase 2a: greedy most-defects-first.  Unbudgeted like
   Defect_flow.greedy_max — it is the floor every degradation lands on,
   and it runs at most [rem_r + rem_c] deletion rounds. *)
let greedy_alloc st =
  let n_r = Defect.rows st.chip and n_c = Defect.cols st.chip in
  let rows_del = ref [] and cols_del = ref [] in
  let rec loop () =
    if recount st > 0 then begin
      let best_r = ref (-1) and best_rc = ref 0 in
      let best_c = ref (-1) and best_cc = ref 0 in
      if st.rem_r > 0 then
        for r = 0 to n_r - 1 do
          if st.keep_r.(r) && st.row_cnt.(r) > !best_rc then begin
            best_r := r;
            best_rc := st.row_cnt.(r)
          end
        done;
      if st.rem_c > 0 then
        for c = 0 to n_c - 1 do
          if st.keep_c.(c) && st.col_cnt.(c) > !best_cc then begin
            best_c := c;
            best_cc := st.col_cnt.(c)
          end
        done;
      if !best_rc = 0 && !best_cc = 0 then
        raise
          (Unrepairable "defects remain but both spare budgets are exhausted");
      (* larger count wins; ties go to the dimension with more slack *)
      let take_row =
        if !best_rc > !best_cc then true
        else if !best_cc > !best_rc then false
        else st.rem_r >= st.rem_c
      in
      if take_row then begin
        st.keep_r.(!best_r) <- false;
        st.rem_r <- st.rem_r - 1;
        rows_del := !best_r :: !rows_del
      end
      else begin
        st.keep_c.(!best_c) <- false;
        st.rem_c <- st.rem_c - 1;
        cols_del := !best_c :: !cols_del
      end;
      loop ()
    end
  in
  loop ();
  (List.rev !rows_del, List.rev !cols_del)

(* Phase 2b: exact branch-and-bound over (replace row | replace column)
   decisions for each uncovered defect, minimizing lines used.  One
   guard step and one node-budget unit per node. *)
exception Out_of_budget

let exact_alloc st guard ~node_budget =
  let defects = ref [] in
  let n_r = Defect.rows st.chip and n_c = Defect.cols st.chip in
  for r = n_r - 1 downto 0 do
    if st.keep_r.(r) then
      for c = n_c - 1 downto 0 do
        if st.keep_c.(c) && Defect.is_defective st.chip r c then
          defects := (r, c) :: !defects
      done
  done;
  let defects = !defects in
  let best = ref None in
  let nodes = ref 0 in
  let rec go rows_del cols_del rem_r rem_c used =
    incr nodes;
    if !nodes > node_budget || not (Guard.Budget.step guard) then
      raise Out_of_budget;
    match !best with
    | Some (b, _, _) when used >= b -> () (* bound *)
    | _ -> (
        let uncovered =
          List.find_opt
            (fun (r, c) ->
              not (List.mem r rows_del) && not (List.mem c cols_del))
            defects
        in
        match uncovered with
        | None -> best := Some (used, rows_del, cols_del)
        | Some (r, c) ->
            if rem_r > 0 then
              go (r :: rows_del) cols_del (rem_r - 1) rem_c (used + 1);
            if rem_c > 0 then
              go rows_del (c :: cols_del) rem_r (rem_c - 1) (used + 1))
  in
  let result =
    match go [] [] st.rem_r st.rem_c 0 with
    | () -> (
        match !best with
        | None -> `Unsat
        | Some (_, rows_del, cols_del) ->
            `Found (List.rev rows_del, List.rev cols_del))
    | exception Out_of_budget -> `Out_of_budget
  in
  Obs.Metrics.add m_nodes !nodes;
  result

let commit st (rows_del, cols_del) =
  List.iter
    (fun r ->
      st.keep_r.(r) <- false;
      st.rem_r <- st.rem_r - 1)
    rows_del;
  List.iter
    (fun c ->
      st.keep_c.(c) <- false;
      st.rem_c <- st.rem_c - 1)
    cols_del;
  (rows_del, cols_del)

let analyze ?guard ?(node_budget = 200_000) ?(mode = Exact) chip ~spare_rows
    ~spare_cols =
  let guard = Guard.Budget.resolve guard in
  Obs.Metrics.incr m_runs;
  let t0 = Obs.Clock.now_ns () in
  let finish r =
    Obs.Metrics.hdr_observe h_analyze (Obs.Clock.now_ns () - t0);
    r
  in
  Obs.Span.with_ ~name:"bira.analyze"
    ~attrs:(fun () ->
      [ ("spare_rows", Obs.Json.Int spare_rows);
        ("spare_cols", Obs.Json.Int spare_cols) ])
  @@ fun () ->
  if spare_rows < 0 || spare_cols < 0 then
    finish
      (Error
         (Guard.Error.invalid_inputf "bira: negative spare budget %d/%d"
            spare_rows spare_cols))
  else if spare_rows >= Defect.rows chip || spare_cols >= Defect.cols chip then
    finish
      (Error
         (Guard.Error.invalid_inputf
            "bira: %d+%d spares leave no logical array on a %dx%d chip"
            spare_rows spare_cols (Defect.rows chip) (Defect.cols chip)))
  else begin
    let n_r = Defect.rows chip and n_c = Defect.cols chip in
    let st =
      { chip;
        keep_r = Array.make n_r true;
        keep_c = Array.make n_c true;
        row_cnt = Array.make n_r 0;
        col_cnt = Array.make n_c 0;
        rem_r = spare_rows;
        rem_c = spare_cols }
    in
    match
      let must_r, must_c = must_repair st in
      Obs.Metrics.add m_must_rows (List.length must_r);
      Obs.Metrics.add m_must_cols (List.length must_c);
      let alloc =
        match mode with
        | Greedy -> `Alloc (commit st (greedy_alloc st), false)
        | Exact -> (
            (* allocation mutates nothing until committed, so the
               greedy fallback starts from the post-must-repair state *)
            match exact_alloc st guard ~node_budget with
            | `Found sets -> `Alloc (commit st sets, false)
            | `Unsat ->
                raise
                  (Unrepairable
                     "no spare assignment covers the remaining defects")
            | `Out_of_budget ->
                if
                  Guard.Budget.exhausted guard
                  && Guard.Budget.policy guard = Guard.Budget.Fail
                then `Fail (Guard.Budget.error guard)
                else begin
                  Guard.Budget.degrade "bira_exact_to_greedy";
                  `Alloc (commit st (greedy_alloc st), true)
                end)
      in
      match alloc with
      | `Fail e -> Error e
      | `Alloc ((rows_del, cols_del), degraded) ->
          let sol =
            { repair_rows = List.sort compare (must_r @ rows_del);
              repair_cols = List.sort compare (must_c @ cols_del);
              must_rows = must_r;
              must_cols = must_c;
              degraded }
          in
          Obs.Metrics.incr m_repaired;
          Obs.Metrics.add m_spares (spares_used sol);
          Ok sol
    with
    | result -> finish result
    | exception Unrepairable why ->
        Obs.Metrics.incr m_unrepairable;
        finish (Error (Guard.Error.unsat ("bira: " ^ why)))
  end

(* ------------------------------------------------------------------ *)
(* Monte-Carlo harness                                                 *)
(* ------------------------------------------------------------------ *)

type stats = {
  repaired : bool;
  spare_rows_used : int;
  spare_cols_used : int;
  must_rows_count : int;
  must_cols_count : int;
  degraded : bool;
}

type mc = {
  mc_trials : int;
  mc_repaired : int;
  mc_avg_spares : float;
  mc_must_lines : int;
  mc_degraded : int;
}

let failed_stats =
  { repaired = false;
    spare_rows_used = 0;
    spare_cols_used = 0;
    must_rows_count = 0;
    must_cols_count = 0;
    degraded = false }

(* One RNG stream per trial, split in trial order up front, so the
   sweep is bit-identical with and without a pool (same contract as
   Bism.monte_carlo). *)
let monte_carlo ?pool ?guard ?(mode = Exact) rng ~trials ~rows ~cols
    ~spare_rows ~spare_cols ~profile =
  if trials <= 0 then invalid_arg "Bira.monte_carlo: trials must be positive";
  if rows <= 0 || cols <= 0 then invalid_arg "Bira.monte_carlo: empty array";
  if spare_rows < 0 || spare_cols < 0 then
    invalid_arg "Bira.monte_carlo: negative spare budget";
  let guard = Guard.Budget.resolve guard in
  Obs.Span.with_ ~name:"bira.monte_carlo"
    ~attrs:(fun () ->
      [ ("trials", Obs.Json.Int trials);
        ("rows", Obs.Json.Int (rows + spare_rows));
        ("cols", Obs.Json.Int (cols + spare_cols)) ])
  @@ fun () ->
  let rngs = Array.init trials (fun _ -> Rng.split rng) in
  let per =
    Nxc_par.Pool.map_range ?pool ~guard trials (fun i ->
        let r = rngs.(i) in
        let chip =
          Defect.generate r ~rows:(rows + spare_rows)
            ~cols:(cols + spare_cols) profile
        in
        (* the ambient budget is this slot's partition slice; analyze
           under a Degrade view of it — a sweep trial winds down to an
           unrepaired outcome rather than aborting the whole sweep *)
        let g = Guard.Budget.degrading (Guard.Budget.current ()) in
        match analyze ~guard:g ~mode chip ~spare_rows ~spare_cols with
        | Ok sol ->
            { repaired = true;
              spare_rows_used = List.length sol.repair_rows;
              spare_cols_used = List.length sol.repair_cols;
              must_rows_count = List.length sol.must_rows;
              must_cols_count = List.length sol.must_cols;
              degraded = sol.degraded }
        | Error _ -> failed_stats)
  in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 per in
  let repaired = sum (fun s -> if s.repaired then 1 else 0) in
  let spares = sum (fun s -> s.spare_rows_used + s.spare_cols_used) in
  ( { mc_trials = trials;
      mc_repaired = repaired;
      mc_avg_spares =
        (if repaired = 0 then 0.0
         else float_of_int spares /. float_of_int repaired);
      mc_must_lines = sum (fun s -> s.must_rows_count + s.must_cols_count);
      mc_degraded = sum (fun s -> if s.degraded then 1 else 0) },
    per )
