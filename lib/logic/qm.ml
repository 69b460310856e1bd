module Obs = Nxc_obs
module Guard = Nxc_guard

let m_calls = Obs.Metrics.counter "qm.minimize_calls"
let m_primes = Obs.Metrics.counter "qm.prime_implicants"
let m_nodes = Obs.Metrics.counter "qm.bnb_nodes"
let m_budget_exhausted = Obs.Metrics.counter "qm.budget_exhausted"
let h_primes = Obs.Metrics.hdr "qm.primes_per_call"

exception Guard_exhausted

(* level sets of implicants as cubes; merge cubes at Hamming distance 1
   with equal masks until a fixpoint.  [guard] is consumed once per
   merge attempt — the pair scan is the exponential part of QM — and
   exhaustion raises {!Guard_exhausted}. *)
let primes_guarded guard ~n ~on ~dc =
  let care = List.sort_uniq compare (on @ dc) in
  let current = ref (List.map (Cube.of_minterm n) care) in
  let prime_acc = ref [] in
  let continue_ = ref (!current <> []) in
  while !continue_ do
    let merged_flag = Hashtbl.create 64 in
    let next = Hashtbl.create 64 in
    let arr = Array.of_list !current in
    (* bucket by popcount of positive bits to limit the pair scan: a
       merge needs equal masks and exactly one flipped polarity, so
       mergeable cubes always sit on adjacent positive counts p, p+1 *)
    let buckets = Array.make (n + 2) [] in
    Array.iter
      (fun c ->
        let p = Cube.num_positive c in
        buckets.(p) <- c :: buckets.(p))
      arr;
    for p = 0 to n - 1 do
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if not (Guard.Budget.step guard) then raise Guard_exhausted;
              match Cube.merge a b with
              | Some m ->
                  Hashtbl.replace next m ();
                  Hashtbl.replace merged_flag (Cube.hash a, a) ();
                  Hashtbl.replace merged_flag (Cube.hash b, b) ()
              | None -> ())
            buckets.(p + 1))
        buckets.(p)
    done;
    Array.iter
      (fun c ->
        if not (Hashtbl.mem merged_flag (Cube.hash c, c)) then
          prime_acc := c :: !prime_acc)
      arr;
    current := Hashtbl.fold (fun c () acc -> c :: acc) next [];
    continue_ := !current <> []
  done;
  List.sort_uniq Cube.compare !prime_acc

let primes ~n ~on ~dc = primes_guarded Guard.Budget.unlimited ~n ~on ~dc

type stats = { num_primes : int; num_essential : int; exact : bool }

type cover_backend = Bnb | Sat

(* Branch and bound over the covering problem: minimize the number of
   chosen primes covering all ON minterms.  [budget] caps explored
   nodes; [guard] is consumed once per node. *)
let cover_exact guard primes_arr on_list budget =
  let nodes = ref 0 in
  let best = ref None in
  let best_size = ref max_int in
  let n_primes = Array.length primes_arr in
  (* for each minterm, the primes covering it *)
  let covering = Hashtbl.create 64 in
  List.iter
    (fun m ->
      let who = ref [] in
      for i = n_primes - 1 downto 0 do
        if Cube.eval_int primes_arr.(i) m then who := i :: !who
      done;
      Hashtbl.replace covering m !who)
    on_list;
  let exception Budget in
  let rec go chosen n_chosen uncovered =
    incr nodes;
    if !nodes > budget || not (Guard.Budget.step guard) then raise Budget;
    match uncovered with
    | [] ->
        if n_chosen < !best_size then begin
          best_size := n_chosen;
          best := Some chosen
        end
    | m :: _rest ->
        if n_chosen + 1 >= !best_size then () (* bound *)
        else
          let candidates = Hashtbl.find covering m in
          List.iter
            (fun i ->
              let uncovered' =
                List.filter
                  (fun m' -> not (Cube.eval_int primes_arr.(i) m'))
                  uncovered
              in
              go (i :: chosen) (n_chosen + 1) uncovered')
            candidates
  in
  let outcome =
    match go [] 0 on_list with
    | () -> (!best, true)
    | exception Budget ->
        Obs.Metrics.incr m_budget_exhausted;
        (!best, false)
  in
  Obs.Metrics.add m_nodes !nodes;
  outcome

let greedy_cover primes_arr on_list =
  let uncovered = ref on_list in
  let chosen = ref [] in
  while !uncovered <> [] do
    let best_i = ref (-1) and best_gain = ref (-1) in
    Array.iteri
      (fun i p ->
        let gain =
          List.fold_left
            (fun acc m -> if Cube.eval_int p m then acc + 1 else acc)
            0 !uncovered
        in
        if gain > !best_gain then begin
          best_gain := gain;
          best_i := i
        end)
      primes_arr;
    let p = primes_arr.(!best_i) in
    chosen := !best_i :: !chosen;
    uncovered := List.filter (fun m -> not (Cube.eval_int p m)) !uncovered
  done;
  !chosen

(* ISOP over the [on <= g <= on + dc] interval: the graceful-degradation
   target when the guard trips during prime generation.  Polynomial in
   the table size, so it terminates promptly even with a dead guard. *)
let isop_fallback ~n ~on ~dc =
  let lower = Truth_table.of_minterms n on in
  let upper =
    match dc with
    | [] -> lower
    | dc -> Truth_table.bor lower (Truth_table.of_minterms n dc)
  in
  Isop.isop ~lower upper

let minimize_with guard ~dc ~budget ~cover_backend ~n on =
  Obs.Metrics.incr m_calls;
  Obs.Span.with_ ~name:"qm.minimize"
    ~attrs:(fun () -> [ ("n", Obs.Json.Int n) ])
  @@ fun () ->
  let on = List.sort_uniq compare on in
  if on = [] then
    Ok (Cover.bottom n, { num_primes = 0; num_essential = 0; exact = true })
  else
    match primes_guarded guard ~n ~on ~dc with
    | exception Guard_exhausted ->
        Obs.Metrics.incr m_budget_exhausted;
        Error (Guard.Budget.error guard)
    | ps ->
        Obs.Metrics.add m_primes (List.length ps);
        Obs.Metrics.hdr_observe h_primes (List.length ps);
        let primes_arr = Array.of_list ps in
        (* essential primes: sole cover of some ON minterm *)
        let essential = Hashtbl.create 16 in
        List.iter
          (fun m ->
            let who = ref [] in
            Array.iteri
              (fun i p -> if Cube.eval_int p m then who := i :: !who)
              primes_arr;
            match !who with
            | [ i ] -> Hashtbl.replace essential i ()
            | _ -> ())
          on;
        let essential_idx =
          Hashtbl.fold (fun i () acc -> i :: acc) essential []
        in
        let covered m =
          List.exists (fun i -> Cube.eval_int primes_arr.(i) m) essential_idx
        in
        let remaining = List.filter (fun m -> not (covered m)) on in
        let rest_primes =
          Array.of_list
            (List.filteri
               (fun i _ -> not (Hashtbl.mem essential i))
               (Array.to_list primes_arr))
        in
        let bnb () =
          match cover_exact guard rest_primes remaining budget with
          | Some sol, ex -> (sol, ex)
          | None, _ -> (greedy_cover rest_primes remaining, false)
        in
        let rest_result =
          if remaining = [] then Ok ([], true)
          else
            match cover_backend with
            | Bnb -> Ok (bnb ())
            | Sat -> (
                match
                  Sat_cover.min_cube_cover ~guard ~primes:rest_primes
                    ~minterms:remaining ()
                with
                | Ok { Sat_cover.chosen; optimal } -> Ok (chosen, optimal)
                | Error (`Budget_exhausted _ as e)
                  when Guard.Budget.policy guard = Guard.Budget.Fail ->
                    Obs.Metrics.incr m_budget_exhausted;
                    Error e
                | Error _ ->
                    (* the solver ran out before any certificate:
                       degrade to branch and bound (which, on a dead
                       guard, immediately winds down to greedy) *)
                    Guard.Budget.degrade "sat_to_bnb";
                    Ok (bnb ()))
        in
        (match rest_result with
        | Error e -> Error e
        | Ok (rest_idx, exact) ->
            let rest_cubes = List.map (fun i -> rest_primes.(i)) rest_idx in
            let cubes =
              List.map (fun i -> primes_arr.(i)) essential_idx @ rest_cubes
            in
            Ok
              ( Cover.make n cubes,
                { num_primes = Array.length primes_arr;
                  num_essential = List.length essential_idx;
                  exact } ))

let minimize_result ?(dc = []) ?(budget = 200_000) ?guard
    ?(cover_backend = Bnb) ~n on =
  minimize_with (Guard.Budget.resolve guard) ~dc ~budget ~cover_backend ~n on

let minimize ?(dc = []) ?(budget = 200_000) ?guard ?(cover_backend = Bnb) ~n
    on =
  let guard = Guard.Budget.resolve guard in
  (* a Degrade view keeps the total contract: the SAT covering backend
     never fails here, it falls back under guard.degrade.sat_to_bnb *)
  match
    minimize_with (Guard.Budget.degrading guard) ~dc ~budget ~cover_backend
      ~n on
  with
  | Ok r -> r
  | Error _ ->
      (* graceful degradation: prime generation ran out of budget; an
         ISOP cover of the same (on, dc) interval is still function-
         equivalent, just not minimal *)
      Guard.Budget.degrade "qm_to_isop";
      ( isop_fallback ~n ~on ~dc,
        { num_primes = 0; num_essential = 0; exact = false } )

let minimize_table ?budget ?guard ?cover_backend tt =
  let n = Truth_table.n_vars tt in
  minimize ?budget ?guard ?cover_backend ~n (Truth_table.minterms tt)

let minimize_func ?budget ?guard ?cover_backend f =
  minimize_table ?budget ?guard ?cover_backend (Boolfunc.table f)
