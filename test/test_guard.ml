(* Unit tests for Nxc_guard and the budget/degradation behavior of the
   entry points that cooperate with it. *)

module G = Nxc_guard
module L = Nxc_logic
module Tt = L.Truth_table

let tt_of_cover c = Tt.of_cover c

(* ------------------------------------------------------------------ *)
(* Budget mechanics                                                    *)
(* ------------------------------------------------------------------ *)

let test_budget_steps () =
  let b = G.Budget.create ~steps:3 () in
  Alcotest.(check bool) "step 1" true (G.Budget.step b);
  Alcotest.(check bool) "step 2" true (G.Budget.step b);
  Alcotest.(check bool) "step 3" true (G.Budget.step b);
  Alcotest.(check bool) "step 4 trips" false (G.Budget.step b);
  Alcotest.(check bool) "sticky" false (G.Budget.step b);
  Alcotest.(check bool) "exhausted" true (G.Budget.exhausted b);
  let c = G.Budget.create ~steps:10 () in
  Alcotest.(check bool) "charge 4" true (G.Budget.charge c 4);
  Alcotest.(check int) "charged 4" 4 (G.Budget.steps_used c);
  Alcotest.(check bool) "charge to the cap" true (G.Budget.charge c 6);
  Alcotest.(check bool) "charge past the cap trips" false (G.Budget.charge c 1);
  Alcotest.(check bool) "charge exhausted" true (G.Budget.exhausted c)

let test_budget_unlimited () =
  let b = G.Budget.create () in
  for _ = 1 to 10_000 do
    assert (G.Budget.step b)
  done;
  Alcotest.(check bool) "alive" true (G.Budget.alive b);
  Alcotest.(check int) "counted" 10_000 (G.Budget.steps_used b)

let test_budget_deadline_zero () =
  (* a zero deadline must trip at the very first step, deterministically *)
  let b = G.Budget.create ~deadline_ms:0.0 () in
  Alcotest.(check bool) "first step trips" false (G.Budget.step b);
  Alcotest.(check bool) "exhausted" true (G.Budget.exhausted b)

let test_budget_policy_view () =
  let b = G.Budget.create ~policy:G.Budget.Fail ~steps:2 () in
  let d = G.Budget.degrading b in
  Alcotest.(check bool) "view degrades" true (G.Budget.policy d = G.Budget.Degrade);
  Alcotest.(check bool) "original fails" true (G.Budget.policy b = G.Budget.Fail);
  (* accounting is shared between the views *)
  ignore (G.Budget.step d);
  ignore (G.Budget.step d);
  Alcotest.(check bool) "shared exhaustion" false (G.Budget.step b)

let test_ambient () =
  let b = G.Budget.create ~label:"scoped" ~steps:1 () in
  let inside = G.Budget.with_current b (fun () -> G.Budget.current ()) in
  Alcotest.(check string) "scoped label" "scoped" (G.Budget.label inside);
  Alcotest.(check string) "restored" "unlimited"
    (G.Budget.label (G.Budget.current ()));
  (* exception-safe restore *)
  (try G.Budget.with_current b (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "restored after raise" "unlimited"
    (G.Budget.label (G.Budget.current ()))

let test_error_rendering () =
  Alcotest.(check string) "invalid input"
    "invalid input: bad byte (line 2, column 7)"
    (G.Error.to_string (G.Error.invalid_input ~line:2 ~column:7 "bad byte"));
  Alcotest.(check int) "exit invalid" 3
    (G.Error.exit_code (G.Error.invalid_input "x"));
  Alcotest.(check int) "exit unsat" 5 (G.Error.exit_code (G.Error.unsat "x"));
  Alcotest.(check int) "exit internal" 1
    (G.Error.exit_code (G.Error.internal "x"));
  let b = G.Budget.create ~steps:0 () in
  ignore (G.Budget.step b);
  Alcotest.(check int) "exit budget" 4 (G.Error.exit_code (G.Budget.error b))

(* ------------------------------------------------------------------ *)
(* Degradation keeps results function-equivalent                       *)
(* ------------------------------------------------------------------ *)

let qm_equiv_under_tiny_budget =
  Testutil.qtest ~count:100 "qm minimize degrades but stays equivalent"
    (Testutil.arb_table 4) (fun tt ->
      let guard = G.Budget.create ~steps:20 () in
      let cover, _stats = L.Qm.minimize_table ~guard tt in
      Tt.equal (tt_of_cover cover) tt)

let minimize_equiv_under_tiny_budget =
  Testutil.qtest ~count:100 "sop_table with a dead guard stays equivalent"
    (Testutil.arb_table_sized 5) (fun tt ->
      let guard = G.Budget.create ~steps:0 () in
      let cover = L.Minimize.sop_table ~guard tt in
      Tt.equal (tt_of_cover cover) tt)

let espresso_equiv_under_tiny_budget =
  Testutil.qtest ~count:100 "espresso early-stop stays equivalent"
    (Testutil.arb_table 4) (fun tt ->
      let cover = L.Cover.of_minterms 4 (Tt.minterms tt) in
      let guard = G.Budget.create ~steps:1 () in
      let out = L.Espresso.minimize ~guard cover in
      Tt.equal (tt_of_cover out) tt)

let test_minimize_result_fail_policy () =
  (* an exhausted Fail-policy guard must surface as a typed error *)
  let tt = Tt.random 6 ~seed:7 in
  let guard = G.Budget.create ~policy:G.Budget.Fail ~steps:5 () in
  match L.Minimize.sop_table_result ~guard tt with
  | Error (`Budget_exhausted _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (G.Error.to_string e)
  | Ok _ -> Alcotest.fail "expected budget exhaustion"

let test_minimize_result_degrade_policy () =
  let tt = Tt.random 6 ~seed:7 in
  let guard = G.Budget.create ~steps:5 () in
  match L.Minimize.sop_table_result ~guard tt with
  | Ok { L.Minimize.cover; degraded } ->
      Alcotest.(check bool) "degraded" true degraded;
      Alcotest.(check bool) "equivalent" true (Tt.equal (tt_of_cover cover) tt)
  | Error e -> Alcotest.failf "unexpected error: %s" (G.Error.to_string e)

let test_determinism () =
  (* same input, same budget -> identical cover and step accounting *)
  let tt = Tt.random 5 ~seed:99 in
  let run () =
    let guard = G.Budget.create ~steps:50 () in
    let cover, _ = L.Qm.minimize_table ~guard tt in
    (List.map L.Cube.to_string (L.Cover.cubes cover), G.Budget.steps_used guard)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair (list string) int)) "identical runs" a b

(* ------------------------------------------------------------------ *)
(* Parser hardening                                                    *)
(* ------------------------------------------------------------------ *)

let check_invalid name s =
  match L.Parse.expr_result s with
  | Error (`Invalid_input _) -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" name (G.Error.to_string e)
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name

let test_parse_rejects () =
  check_invalid "bare x" "x";
  check_invalid "zero index" "x0 + x1";
  check_invalid "trailing" "x1 x2 )";
  check_invalid "non-ascii" "x1 \xc3\xa9 x2";
  check_invalid "control byte" "x1 \x01 x2";
  check_invalid "huge index" "x9999999";
  check_invalid "overlong" ("x1 + " ^ String.make 70_000 ' ' ^ "x2");
  (match L.Parse.expr_result ~n:0 "x1" with
  | Error (`Invalid_input _) -> ()
  | _ -> Alcotest.fail "forced arity below used variables must fail");
  (* column is reported for located errors *)
  match L.Parse.expr_result "x1 ? x2" with
  | Error (`Invalid_input { G.Error.column = Some 4; _ }) -> ()
  | Error (`Invalid_input { G.Error.column; _ }) ->
      Alcotest.failf "wrong column: %s"
        (match column with None -> "none" | Some c -> string_of_int c)
  | _ -> Alcotest.fail "expected a located error"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_parse_legacy_exception () =
  (match L.Parse.expr "x1 +" with
  | exception L.Parse.Parse_error _ -> ()
  | _ -> Alcotest.fail "legacy API must raise Parse_error");
  match L.Parse.pla_of_string ".i 2\n.o 1\nzz 1\n.e\n" with
  | exception L.Parse.Parse_error msg ->
      Alcotest.(check bool) "message carries the line" true
        (contains msg "line 3")
  | _ -> Alcotest.fail "legacy PLA API must raise Parse_error"

let test_pla_rejects () =
  let bad = [
    ("missing .i", ".o 1\n1 1\n.e\n");
    ("missing .o", ".i 1\n1 1\n.e\n");
    ("bad .i value", ".i lots\n.o 1\n1 1\n.e\n");
    ("zero inputs", ".i 0\n.o 1\n 1\n.e\n");
    ("width mismatch", ".i 3\n.o 1\n10 1\n.e\n");
    ("output width", ".i 2\n.o 2\n10 1\n.e\n");
    ("bad output char", ".i 2\n.o 1\n10 x\n.e\n");
    ("unknown directive", ".i 2\n.o 1\n.bogus\n10 1\n.e\n");
    ("ilb arity", ".i 2\n.o 1\n.ilb a\n10 1\n.e\n");
  ] in
  List.iter
    (fun (name, text) ->
      match L.Parse.pla_of_string_result text with
      | Error (`Invalid_input _) -> ()
      | Error e ->
          Alcotest.failf "%s: wrong error %s" name (G.Error.to_string e)
      | Ok _ -> Alcotest.failf "%s: expected rejection" name)
    bad

(* ------------------------------------------------------------------ *)
(* Flow robustness                                                     *)
(* ------------------------------------------------------------------ *)

module R = Nxc_reliability
module C = Nxc_core

let test_flow_infeasible_chip () =
  let f = L.Parse.expr "x1x2 + x3" in
  let chip =
    R.Defect.generate (R.Rng.create 1) ~rows:1 ~cols:1 (R.Defect.uniform 0.0)
  in
  let r = C.Flow.run (R.Rng.create 2) ~chip f in
  Alcotest.(check bool) "not functional" false r.C.Flow.functional;
  Alcotest.(check bool) "no mapping" true (r.C.Flow.mapping = None);
  match C.Flow.run_result (R.Rng.create 2) ~chip f with
  | Ok r ->
      Alcotest.(check bool) "result not functional" false r.C.Flow.functional
  | Error e -> Alcotest.failf "unexpected error: %s" (G.Error.to_string e)

let test_flow_all_defective () =
  let f = L.Parse.expr "x1 ^ x2" in
  let chip =
    R.Defect.generate (R.Rng.create 3) ~rows:8 ~cols:8 (R.Defect.uniform 1.0)
  in
  match C.Flow.run_result ~max_configs:50 (R.Rng.create 4) ~chip f with
  | Ok r ->
      Alcotest.(check bool) "not functional" false r.C.Flow.functional;
      Alcotest.(check bool) "no mapping" true (r.C.Flow.mapping = None)
  | Error e -> Alcotest.failf "unexpected error: %s" (G.Error.to_string e)

let test_flow_budget_fail_policy () =
  let f = L.Parse.expr "x1 ^ x2" in
  let chip =
    R.Defect.generate (R.Rng.create 3) ~rows:8 ~cols:8 (R.Defect.uniform 1.0)
  in
  let guard = G.Budget.create ~policy:G.Budget.Fail ~steps:10 () in
  match C.Flow.run_result ~guard (R.Rng.create 4) ~chip f with
  | Error (`Budget_exhausted _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (G.Error.to_string e)
  | Ok r ->
      (* acceptable only if it mapped before the budget ran out *)
      Alcotest.(check bool) "mapped in budget" true
        (r.C.Flow.mapping <> None || not (G.Budget.exhausted guard))

let test_bism_guard_winds_down () =
  let chip =
    R.Defect.generate (R.Rng.create 5) ~rows:16 ~cols:16 (R.Defect.uniform 1.0)
  in
  let guard = G.Budget.create ~steps:7 () in
  let stats, mapping =
    R.Bism.run ~guard (R.Rng.create 6) R.Bism.Blind ~chip ~k_rows:4 ~k_cols:4
      ~max_configs:1_000_000
  in
  Alcotest.(check bool) "no mapping" true (mapping = None);
  Alcotest.(check bool) "stopped early" true (stats.R.Bism.configurations <= 7)

let test_exact_max_degrades () =
  (* a dead guard forces the greedy fallback; the selection must still
     be defect-free *)
  let chip =
    R.Defect.generate (R.Rng.create 8) ~rows:10 ~cols:10 (R.Defect.uniform 0.2)
  in
  let guard = G.Budget.create ~steps:0 () in
  ignore (G.Budget.step guard);
  let sel = R.Defect_flow.exact_max ~guard chip in
  Alcotest.(check bool) "defect-free" true (R.Defect_flow.is_defect_free chip sel)

let () =
  Alcotest.run "guard"
    [ ("budget",
       [ Alcotest.test_case "steps" `Quick test_budget_steps;
         Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
         Alcotest.test_case "deadline zero" `Quick test_budget_deadline_zero;
         Alcotest.test_case "policy view" `Quick test_budget_policy_view;
         Alcotest.test_case "ambient" `Quick test_ambient;
         Alcotest.test_case "errors" `Quick test_error_rendering ]);
      ("degradation",
       [ qm_equiv_under_tiny_budget;
         minimize_equiv_under_tiny_budget;
         espresso_equiv_under_tiny_budget;
         Alcotest.test_case "fail policy" `Quick test_minimize_result_fail_policy;
         Alcotest.test_case "degrade policy" `Quick
           test_minimize_result_degrade_policy;
         Alcotest.test_case "determinism" `Quick test_determinism ]);
      ("parse",
       [ Alcotest.test_case "expr rejects" `Quick test_parse_rejects;
         Alcotest.test_case "legacy exception" `Quick test_parse_legacy_exception;
         Alcotest.test_case "pla rejects" `Quick test_pla_rejects ]);
      ("flow",
       [ Alcotest.test_case "infeasible chip" `Quick test_flow_infeasible_chip;
         Alcotest.test_case "all defective" `Quick test_flow_all_defective;
         Alcotest.test_case "fail policy" `Quick test_flow_budget_fail_policy;
         Alcotest.test_case "bism winds down" `Quick test_bism_guard_winds_down;
         Alcotest.test_case "exact_max degrades" `Quick test_exact_max_degrades ]) ]
