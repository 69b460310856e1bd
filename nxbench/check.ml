(* Output checks, independent of the engine's own verify.

   A synth envelope's cover is re-parsed from its printed form and
   evaluated with the benchmark's own evaluator against the truth table
   the benchmark asked for; its crossbar and lattice dimensions are
   recomputed from the returned counts with the paper's Fig. 3 / Fig. 5
   formulas.  Simulation envelopes are checked against the invariants
   their payloads must hold.  Each check returns the result's array
   area (crosspoints of its smallest reported implementation, 0 when it
   reports none) and its mapping tallies, or the reason it failed. *)

module J = Nxc_obs.Json

type tally = {
  area : int;
  mapped : int;  (** trials mapped or repaired, flows that stayed functional *)
  mappable : int;  (** trials and flows that could have been *)
  degraded_trials : int;  (** repair trials whose exact search degraded *)
  repair_trials : int;
}

let no_tally =
  { area = 0; mapped = 0; mappable = 0; degraded_trials = 0; repair_trials = 0 }

exception Bad of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let field name = function
  | J.Obj _ as o -> (
      match J.member name o with Some v -> v | None -> fail "missing %S" name)
  | _ -> fail "not an object where %S was expected" name

let int name o =
  match field name o with J.Int i -> i | _ -> fail "%S is not an int" name

let num name o =
  match field name o with
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> fail "%S is not a number" name

let bool name o =
  match field name o with J.Bool b -> b | _ -> fail "%S is not a bool" name

let str name o =
  match field name o with J.Str s -> s | _ -> fail "%S is not a string" name

(* "x1x2' + x3" (or "0") as cubes of (0-based input, positive?) *)
let parse_cover n s =
  if String.trim s = "0" then []
  else
    List.map
      (fun term ->
        let term = String.trim term in
        let len = String.length term in
        let rec lits i acc =
          if i >= len then List.rev acc
          else if term.[i] <> 'x' then fail "bad cover literal in %S" term
          else
            let j = ref (i + 1) in
            while !j < len && term.[!j] >= '0' && term.[!j] <= '9' do incr j done;
            let v = int_of_string (String.sub term (i + 1) (!j - i - 1)) - 1 in
            if v < 0 || v >= n then fail "cover input x%d out of range" (v + 1);
            if !j < len && term.[!j] = '\'' then lits (!j + 1) ((v, false) :: acc)
            else lits !j ((v, true) :: acc)
        in
        lits 0 [])
      (String.split_on_char '+' s)

let dims name o = (int "rows" (field name o), int "cols" (field name o))

let check_synth ~n ~table result =
  if int "n" result <> n then fail "n %d, expected %d" (int "n" result) n;
  let cover = parse_cover n (str "cover" result) in
  Array.iteri
    (fun m want ->
      if Gen.eval_sop cover m <> want then
        fail "cover differs from the requested function at minterm %d" m)
    table;
  let p = int "products" result
  and pd = int "dual_products" result
  and lits = int "distinct_literals" result in
  if List.length cover <> p then
    fail "cover has %d products, envelope says %d" (List.length cover) p;
  let distinct = List.sort_uniq compare (List.concat cover) in
  if List.length distinct <> lits then
    fail "cover has %d distinct literals, envelope says %d"
      (List.length distinct) lits;
  (* Fig. 3 (diode, FET) and Fig. 5 (four-terminal lattice) sizes *)
  let expect name (r, c) =
    if dims name result <> (r, c) then
      fail "%s is %dx%d, the formula gives %dx%d" name
        (fst (dims name result)) (snd (dims name result)) r c
  in
  expect "diode" (p, lits + 1);
  expect "fet" (lits, p + pd);
  expect "lattice" (pd, p);
  if not (bool "verified" result) then fail "not verified";
  let area (r, c) = r * c in
  { no_tally with
    area = min (area (p, lits + 1)) (min (area (lits, p + pd)) (area (pd, p))) }

let within name lo hi v =
  if v < lo || v > hi then fail "%s = %g outside [%g, %g]" name v lo hi

let check_sim expect ~exit result =
  match expect with
  | Gen.Synth _ -> assert false
  | Gen.Flow ->
      let mapped = bool "mapped" result and functional = bool "functional" result in
      if functional && not mapped then fail "functional but not mapped";
      if functional <> (exit = 0) then fail "exit %d with functional=%b" exit functional;
      within "defect_pct" 0.0 100.0 (num "defect_pct" result);
      let r, c = dims "lattice" result in
      if r <= 0 || c <= 0 then fail "empty lattice";
      { no_tally with
        area = r * c;
        mapped = (if functional then 1 else 0);
        mappable = 1 }
  | Gen.Bism { trials } ->
      if int "trials" result <> trials then fail "trials changed";
      let t = float_of_int trials in
      let mapped = int "mapped" result in
      within "mapped" 0.0 t (float_of_int mapped);
      (match J.member "unmappable" result with
      | Some _ ->
          let un = int "unmappable" result in
          within "mapped+unmappable" 0.0 t (float_of_int (mapped + un));
          within "degraded" 0.0 t (float_of_int (int "degraded" result))
      | None -> within "avg_configs" 0.0 1e6 (num "avg_configs" result));
      { no_tally with mapped; mappable = trials }
  | Gen.Bist ->
      within "coverage_pct" 0.0 100.0 (num "coverage_pct" result);
      List.iter
        (fun k -> if int k result <= 0 then fail "%s not positive" k)
        [ "configs"; "vectors"; "faults" ];
      no_tally
  | Gen.Yield { n } ->
      let k50 = int "k_at_50" result
      and k90 = int "k_at_90" result
      and k99 = int "k_at_99" result in
      if not (0 <= k99 && k99 <= k90 && k90 <= k50 && k50 <= n) then
        fail "k quantiles out of order: %d %d %d" k50 k90 k99;
      within "mean_max_k" 0.0 (float_of_int n) (num "mean_max_k" result);
      no_tally
  | Gen.Repair { trials } ->
      if int "trials" result <> trials then fail "trials changed";
      let t = float_of_int trials in
      let repaired = int "repaired" result and degraded = int "degraded_trials" result in
      within "repaired" 0.0 t (float_of_int repaired);
      within "degraded_trials" 0.0 t (float_of_int degraded);
      within "area_overhead" 0.0 100.0 (num "area_overhead" result);
      { no_tally with
        mapped = repaired;
        mappable = trials;
        degraded_trials = degraded;
        repair_trials = trials }

(* A flow that leaves the chip unmappable answers exit 5: a result, not
   a failure.  Every other non-zero exit (1 internal, 3 invalid input,
   4 budget) fails the job. *)
let envelope (job : Gen.job) env =
  try
    let status = str "status" env and exit = int "exit" env in
    let allowed = exit = 0 || (exit = 5 && job.expect = Gen.Flow) in
    if status <> "ok" || not allowed then
      fail "exit %d (%s)" exit
        (match J.member "error" env with Some (J.Str e) -> e | _ -> status);
    let result = field "result" env in
    Ok
      (match job.expect with
      | Gen.Synth { n; table } -> check_synth ~n ~table result
      | e -> check_sim e ~exit result)
  with
  | Bad why -> Error why
  | Failure why | Invalid_argument why -> Error why
