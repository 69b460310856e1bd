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
        (* the primes covering each ON minterm; a minterm with a single
           one makes that prime essential *)
        let covering =
          List.map
            (fun m ->
              let who = ref [] in
              for i = Array.length primes_arr - 1 downto 0 do
                if Cube.eval_int primes_arr.(i) m then who := i :: !who
              done;
              (m, !who))
            on
        in
        let essential = Array.make (Array.length primes_arr) false in
        List.iter
          (function _, [ i ] -> essential.(i) <- true | _ -> ())
          covering;
        let essential_idx, rest =
          List.partition (fun i -> essential.(i))
            (List.init (Array.length primes_arr) Fun.id)
        in
        (* the covering problem left over: remaining minterms against
           the non-essential primes, renumbered in index order *)
        let rest_idx = Array.of_list rest in
        let renumber = Array.make (Array.length primes_arr) (-1) in
        Array.iteri (fun j i -> renumber.(i) <- j) rest_idx;
        let covered_by =
          Array.of_list
            (List.filter_map
               (fun (_, who) ->
                 if List.exists (fun i -> essential.(i)) who then None
                 else Some (List.map (fun i -> renumber.(i)) who))
               covering)
        in
        let num_sets = Array.length rest_idx in
        let solve () =
          let r = Covering.solve ?budget ~guard ~num_sets ~covered_by () in
          Obs.Metrics.add m_nodes r.Covering.nodes;
          if not r.exact then Obs.Metrics.incr m_budget_exhausted;
          (r.chosen, r.exact)
        in
        let rest_result =
          if covered_by = [||] then Ok ([], true)
          else
            match cover_backend with
            | Bnb -> Ok (solve ())
            | Sat -> (
                match Sat_cover.min_cover ~guard ~num_sets ~covered_by () with
                | Ok { Sat_cover.chosen; optimal } -> Ok (chosen, optimal)
                | Error (`Budget_exhausted _ as e)
                  when Guard.Budget.policy guard = Guard.Budget.Fail ->
                    Obs.Metrics.incr m_budget_exhausted;
                    Error e
                | Error _ ->
                    (* the solver ran out before any certificate: degrade
                       to the covering solver, which on a dead guard
                       returns its greedy incumbent at once *)
                    Guard.Budget.degrade "sat_to_bnb";
                    Ok (solve ()))
        in
        (match rest_result with
        | Error e -> Error e
        | Ok (chosen, exact) ->
            let rest_cubes =
              List.map (fun j -> primes_arr.(rest_idx.(j))) chosen
            in
            let cubes =
              List.map (fun i -> primes_arr.(i)) essential_idx @ rest_cubes
            in
            Ok
              ( Cover.make n cubes,
                { num_primes = Array.length primes_arr;
                  num_essential = List.length essential_idx;
                  exact } ))

let minimize_result ?(dc = []) ?budget ?guard ?(cover_backend = Bnb) ~n on =
  minimize_with (Guard.Budget.resolve guard) ~dc ~budget ~cover_backend ~n on

let minimize ?(dc = []) ?budget ?guard ?(cover_backend = Bnb) ~n on =
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
