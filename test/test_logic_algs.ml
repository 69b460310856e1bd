(* Tests for the algorithmic layer of Nxc_logic:
   Bdd, Parse, Qm, Isop, Minimize, Dual, Affine, Pcircuit. *)

open Nxc_logic
module U = Testutil
module Tt = Truth_table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Bdd                                                                 *)
(* ------------------------------------------------------------------ *)

let bdd_tests =
  [
    Alcotest.test_case "constants" `Quick (fun () ->
        let man = Bdd.manager () in
        check "zero" true (Bdd.is_const (Bdd.zero man) = Some false);
        check "one" true (Bdd.is_const (Bdd.one man) = Some true);
        check "not zero = one" true
          (Bdd.equal (Bdd.bnot man (Bdd.zero man)) (Bdd.one man)));
    Alcotest.test_case "x and not x" `Quick (fun () ->
        let man = Bdd.manager () in
        let x = Bdd.var man 0 in
        check "contradiction" true
          (Bdd.equal (Bdd.band man x (Bdd.bnot man x)) (Bdd.zero man));
        check "tautology" true
          (Bdd.equal (Bdd.bor man x (Bdd.bnot man x)) (Bdd.one man)));
    Alcotest.test_case "satcount of xor" `Quick (fun () ->
        let man = Bdd.manager () in
        let f = Bdd.bxor man (Bdd.var man 0) (Bdd.var man 1) in
        check_int "two satisfying rows" 2 (Bdd.satcount man f ~n:2);
        check_int "four rows over three vars" 4 (Bdd.satcount man f ~n:3));
    Alcotest.test_case "any_sat" `Quick (fun () ->
        let man = Bdd.manager () in
        let f = Bdd.band man (Bdd.var man 0) (Bdd.bnot man (Bdd.var man 2)) in
        (match Bdd.any_sat f ~n:3 with
        | Some m -> check "satisfies" true (m land 1 <> 0 && m land 4 = 0)
        | None -> Alcotest.fail "expected sat");
        check "unsat" true (Bdd.any_sat (Bdd.zero man) ~n:3 = None));
    Alcotest.test_case "support" `Quick (fun () ->
        let man = Bdd.manager () in
        let f = Bdd.band man (Bdd.var man 1) (Bdd.var man 3) in
        Alcotest.(check (list int)) "vars" [ 1; 3 ] (Bdd.support f));
    U.qtest "truth table roundtrip" (U.arb_table 5) (fun tt ->
        let man = Bdd.manager () in
        let b = Bdd.of_truth_table man tt in
        Tt.equal (Bdd.to_truth_table b ~n:5) tt);
    U.qtest ~count:60 "ops agree with tables"
      QCheck.(pair (U.arb_table 5) (U.arb_table 5))
      (fun (f, g) ->
        let man = Bdd.manager () in
        let bf = Bdd.of_truth_table man f and bg = Bdd.of_truth_table man g in
        Tt.equal (Bdd.to_truth_table (Bdd.band man bf bg) ~n:5) (Tt.band f g)
        && Tt.equal (Bdd.to_truth_table (Bdd.bor man bf bg) ~n:5) (Tt.bor f g)
        && Tt.equal (Bdd.to_truth_table (Bdd.bxor man bf bg) ~n:5) (Tt.bxor f g));
    U.qtest "hash consing canonicity" QCheck.(pair (U.arb_table 5) (U.arb_table 5))
      (fun (f, g) ->
        let man = Bdd.manager () in
        let bf = Bdd.of_truth_table man f and bg = Bdd.of_truth_table man g in
        Bdd.equal bf bg = Tt.equal f g);
    U.qtest "satcount equals count_ones" (U.arb_table 6) (fun f ->
        let man = Bdd.manager () in
        Bdd.satcount man (Bdd.of_truth_table man f) ~n:6 = Tt.count_ones f);
    U.qtest "restrict is cofactor" QCheck.(triple (U.arb_table 5) (int_bound 4) bool)
      (fun (f, v, b) ->
        let man = Bdd.manager () in
        Tt.equal
          (Bdd.to_truth_table (Bdd.restrict man (Bdd.of_truth_table man f) v b) ~n:5)
          (Tt.cofactor f v b));
    U.qtest ~count:60 "of_cover agrees with table of cover" (U.arb_cover 5)
      (fun c ->
        let man = Bdd.manager () in
        Tt.equal (Bdd.to_truth_table (Bdd.of_cover man c) ~n:5) (Tt.of_cover c));
  ]

(* ------------------------------------------------------------------ *)
(* Parse                                                               *)
(* ------------------------------------------------------------------ *)

let parse_tests =
  [
    Alcotest.test_case "paper's example f = x1x2 + x1'x2'" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1'x2'" in
        check_int "arity" 2 (Boolfunc.n_vars f);
        check "00" true (Boolfunc.eval_int f 0b00);
        check "11" true (Boolfunc.eval_int f 0b11);
        check "01" false (Boolfunc.eval_int f 0b01);
        check "10" false (Boolfunc.eval_int f 0b10));
    Alcotest.test_case "precedence: AND binds tighter than OR" `Quick (fun () ->
        let f = Parse.expr "x1 + x2 x3" in
        check "x1 alone" true (Boolfunc.eval_int f 0b001);
        check "x2 alone" false (Boolfunc.eval_int f 0b010);
        check "x2x3" true (Boolfunc.eval_int f 0b110));
    Alcotest.test_case "xor and parentheses" `Quick (fun () ->
        let f = Parse.expr "(x1 + x2) ^ x3" in
        check "001" true (Boolfunc.eval_int f 0b001);
        check "101" false (Boolfunc.eval_int f 0b101);
        check "100" true (Boolfunc.eval_int f 0b100));
    Alcotest.test_case "prefix not" `Quick (fun () ->
        let f = Parse.expr "~x1 x2" in
        check "10" true (Boolfunc.eval_int f 0b10);
        check "11" false (Boolfunc.eval_int f 0b11));
    Alcotest.test_case "forced arity" `Quick (fun () ->
        let f = Parse.expr ~n:4 "x1" in
        check_int "arity 4" 4 (Boolfunc.n_vars f));
    Alcotest.test_case "errors" `Quick (fun () ->
        let expect_fail s =
          match Parse.expr s with
          | exception Parse.Parse_error _ -> ()
          | _ -> Alcotest.failf "expected parse error on %S" s
        in
        expect_fail "x";
        expect_fail "x1 +";
        expect_fail "(x1";
        expect_fail "x0";
        expect_fail "x1 ? x2");
    Alcotest.test_case "expr_cover keeps products" `Quick (fun () ->
        let c = Parse.expr_cover "x1x2 + x1'x2' + x3" in
        check_int "three products" 3 (Cover.num_cubes c);
        check "rejects non-SOP" true
          (match Parse.expr_cover "x1 (x2 + x3)" with
          | exception Parse.Parse_error _ -> true
          | _ -> false));
    Alcotest.test_case "pla parse" `Quick (fun () ->
        let p =
          Parse.pla_of_string ".i 3\n.o 2\n.p 3\n1-0 10\n011 11\n--1 01\n.e\n"
        in
        check_int "inputs" 3 p.Parse.inputs;
        check_int "outputs" 2 p.Parse.outputs;
        let f0 = Tt.of_cover p.Parse.on_sets.(0) in
        check "f0 at x1=1,x3=0" true (Tt.eval_int f0 0b001);
        check "f0 at 011" true (Tt.eval_int f0 0b110);
        check "f0 off at 100" false (Tt.eval_int f0 0b100));
    U.qtest ~count:60 "pla roundtrip" QCheck.(pair (U.arb_cover 4) (U.arb_cover 4))
      (fun (c1, c2) ->
        let p =
          { Parse.inputs = 4;
            outputs = 2;
            input_labels = None;
            output_labels = None;
            on_sets = [| c1; c2 |];
            dc_sets = [| Cover.bottom 4; Cover.bottom 4 |] }
        in
        let p' = Parse.pla_of_string (Parse.pla_to_string p) in
        Tt.equal (Tt.of_cover p'.Parse.on_sets.(0)) (Tt.of_cover c1)
        && Tt.equal (Tt.of_cover p'.Parse.on_sets.(1)) (Tt.of_cover c2));
  ]

(* ------------------------------------------------------------------ *)
(* Qm / Isop / Minimize                                                *)
(* ------------------------------------------------------------------ *)

(* every element has a chosen set *)
let covers covered_by chosen =
  Array.for_all (List.exists (fun c -> List.mem c chosen)) covered_by

(* the fewest sets covering every element, over all subsets *)
let brute_min_cover ~num_sets covered_by =
  let best = ref max_int in
  for mask = 0 to (1 lsl num_sets) - 1 do
    let chosen = List.filter (fun c -> mask land (1 lsl c) <> 0) (List.init num_sets Fun.id) in
    if covers covered_by chosen then best := min !best (List.length chosen)
  done;
  !best

(* an ON-set and a disjoint, sparser DC-set over [0, max_n] inputs *)
let arb_interval_upto max_n =
  QCheck.make
    ~print:(fun (n, on, dc) ->
      Format.asprintf "n=%d on=%a dc=%a" n Tt.pp on Tt.pp dc)
    QCheck.Gen.(
      triple (int_range 0 max_n) nat nat >|= fun (n, s1, s2) ->
      let dc = Tt.random_with_density n ~seed:s2 ~density:0.25 in
      (n, Tt.bsub (Tt.random n ~seed:s1) dc, dc))

let sop_tests =
  [
    Alcotest.test_case "xor2 needs two products" `Quick (fun () ->
        let f = Parse.expr "x1x2' + x1'x2" in
        let c, st = Qm.minimize_func f in
        check_int "products" 2 (Cover.num_cubes c);
        check "exact" true st.Qm.exact;
        check "verified" true (Minimize.verify c f));
    Alcotest.test_case "maj3 needs three products" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1x3 + x2x3" in
        let c, _ = Qm.minimize_func f in
        check_int "products" 3 (Cover.num_cubes c));
    Alcotest.test_case "merging collapses a full cube" `Quick (fun () ->
        let f = Boolfunc.of_fun_int 4 (fun _ -> true) in
        let c, _ = Qm.minimize_func f in
        check_int "single universal cube" 1 (Cover.num_cubes c);
        check "it is top" true (Cube.is_top (List.nth (Cover.cubes c) 0)));
    Alcotest.test_case "don't cares shrink the cover" `Quick (fun () ->
        (* on = {00}, dc = {10}: x2' covers both, one literal suffices *)
        let c, _ = Qm.minimize ~dc:[ 0b10 ] ~n:2 [ 0b00 ] in
        check_int "one cube" 1 (Cover.num_cubes c);
        check_int "one literal" 1 (Cover.num_literals c));
    Alcotest.test_case "primes of xor2" `Quick (fun () ->
        let ps = Qm.primes ~n:2 ~on:[ 0b01; 0b10 ] ~dc:[] in
        check_int "two primes" 2 (List.length ps));
    U.qtest ~count:100 "qm cover equals function" (U.arb_table 5) (fun tt ->
        let c, _ = Qm.minimize_table tt in
        Tt.equal (Tt.of_cover c) tt);
    U.qtest ~count:60 "qm exact cover is irredundant" (U.arb_table 4) (fun tt ->
        let c, st = Qm.minimize_table tt in
        (not st.Qm.exact)
        || List.for_all
             (fun cube ->
               let rest =
                 Cover.make 4
                   (List.filter (fun d -> not (Cube.equal cube d)) (Cover.cubes c))
               in
               not (Tt.equal (Tt.of_cover rest) tt))
             (Cover.cubes c)
        || Cover.num_cubes c = 0);
    U.qtest ~count:150 "isop cover equals function" (U.arb_table 6) (fun tt ->
        Tt.equal (Tt.of_cover (Isop.isop tt)) tt);
    U.qtest "isop with don't cares stays in interval"
      QCheck.(pair (U.arb_table 5) (U.arb_table 5))
      (fun (a, b) ->
        let lower = Tt.band a b and upper = Tt.bor a b in
        let c = Tt.of_cover (Isop.isop ~lower upper) in
        Tt.implies lower c && Tt.implies c upper);
    U.qtest ~count:60 "isop is an irredundant cover of any interval"
      (arb_interval_upto 10)
      (fun (n, lower, dc) ->
        let upper = Tt.bor lower dc in
        let cubes = Cover.cubes (Isop.isop ~lower upper) in
        (* how many cubes cover each minterm of [lower] *)
        let hits = Array.make (1 lsl n) 0 in
        List.iter
          (fun c -> List.iter (fun m -> hits.(m) <- hits.(m) + 1) (Cube.minterms c))
          cubes;
        List.for_all (fun m -> hits.(m) > 0) (Tt.minterms lower)
        && List.for_all
             (fun c ->
               let ms = Cube.minterms c in
               (* the cube implies [upper] ... *)
               List.for_all (Tt.eval_int upper) ms
               (* ... and is the only cube on some minterm of [lower] *)
               && List.exists (fun m -> Tt.eval_int lower m && hits.(m) = 1) ms)
             cubes);
    U.qtest ~count:100 "isop is irredundant" (U.arb_table 4) (fun tt ->
        let c = Isop.isop tt in
        Cover.num_cubes c <= 1
        || List.for_all
             (fun cube ->
               let rest =
                 Cover.make 4
                   (List.filter (fun d -> not (Cube.equal cube d)) (Cover.cubes c))
               in
               not (Tt.implies tt (Tt.of_cover rest)))
             (Cover.cubes c));
    U.qtest ~count:100 "isop never beats exact QM" (U.arb_table 4) (fun tt ->
        let exact, st = Qm.minimize_table tt in
        (not st.Qm.exact)
        || Cover.num_cubes (Isop.isop tt) >= Cover.num_cubes exact);
    U.qtest ~count:100 "minimize auto verifies" (U.arb_table_sized 6) (fun tt ->
        let c = Minimize.sop_table tt in
        Tt.equal (Tt.of_cover c) tt);
    Alcotest.test_case "cyclic core covers sym7_34 and rd73_1 exactly" `Quick
      (fun () ->
        (* the plain branch and bound these replaced capped out at 50
           and 48 products; 35 is optimal for sym7_34 because each of
           its primes covers 2 of its 70 minterms *)
        List.iter
          (fun (name, products) ->
            let f = (Option.get (Nxc_suite.by_name name)).Nxc_suite.func in
            match Minimize.sop_result f with
            | Ok o ->
                check (name ^ " exact") false o.Minimize.degraded;
                check_int (name ^ " products") products
                  (Cover.num_cubes o.Minimize.cover);
                check (name ^ " verified") true (Minimize.verify o.Minimize.cover f)
            | Error e -> Alcotest.failf "%s: %s" name (Nxc_guard.Error.to_string e))
          [ ("sym7_34", 35); ("rd73_1", 42) ]);
    Alcotest.test_case "capped covers report degraded" `Quick (fun () ->
        (* a guard that outlasts prime generation but not the covering
           search: the cover is the greedy incumbent, which is not known
           to be minimum, and the result must say so *)
        let tt = Boolfunc.table (Option.get (Nxc_suite.by_name "sym7_34")).Nxc_suite.func in
        let prime_steps =
          let g = Nxc_guard.Budget.create () in
          ignore (Qm.minimize_result ~guard:g ~budget:0 ~n:7 (Tt.minterms tt));
          Nxc_guard.Budget.steps_used g
        in
        let guard = Nxc_guard.Budget.create ~steps:(prime_steps + 10) () in
        (match Minimize.sop_table_result ~guard tt with
        | Ok o ->
            check "degraded" true o.Minimize.degraded;
            check "equivalent" true (Tt.equal (Tt.of_cover o.Minimize.cover) tt)
        | Error e -> Alcotest.failf "sym7_34: %s" (Nxc_guard.Error.to_string e));
        match Minimize.sop_result (Parse.expr "x1x2 + x1'x2'") with
        | Ok o -> check "xnor2 exact" false o.Minimize.degraded
        | Error e -> Alcotest.failf "xnor2: %s" (Nxc_guard.Error.to_string e));
    U.qtest ~count:500 "covering solver matches brute force on small matrices"
      QCheck.(
        make
          ~print:(fun (k, rows) ->
            Printf.sprintf "%d sets: %s" k
              (String.concat " | "
                 (List.map (fun r -> String.concat "," (List.map string_of_int r)) rows)))
          Gen.(
            (* rows of 2-3 sets make cyclic cores, where greedy and the
               reductions alone fall short *)
            int_range 1 12 >>= fun k ->
            list_size (int_range 0 30)
              (list_size (int_range 2 3) (int_range 0 (k - 1)))
            >|= fun rows -> (k, List.map (List.sort_uniq compare) rows)))
      (fun (num_sets, rows) ->
        let covered_by = Array.of_list rows in
        let guard = Nxc_guard.Budget.unlimited in
        let r = Covering.solve ~guard ~num_sets ~covered_by () in
        let greedy = Covering.solve ~budget:0 ~guard ~num_sets ~covered_by () in
        (* a dead guard gets the greedy incumbent at once *)
        let dead = Nxc_guard.Budget.create ~steps:0 () in
        ignore (Nxc_guard.Budget.step dead);
        let starved = Covering.solve ~guard:dead ~num_sets ~covered_by () in
        r.Covering.exact
        && (not starved.exact)
        && starved.chosen = greedy.chosen
        && starved.nodes = 1
        && covers covered_by r.chosen
        && List.length r.chosen = brute_min_cover ~num_sets covered_by
        && List.length r.chosen <= List.length greedy.chosen);
    U.qtest ~count:200 "qm with don't cares matches brute force"
      (arb_interval_upto 5)
      (fun (n, on_t, dc_t) ->
        let on = Tt.minterms on_t and dc = Tt.minterms dc_t in
        let primes = Array.of_list (Qm.primes ~n ~on ~dc) in
        QCheck.assume (Array.length primes <= 16);
        let c, st = Qm.minimize ~dc ~n on in
        (* only ON minterms need covering; each is covered by the
           primes that contain it *)
        let covered_by =
          Array.of_list
            (List.map
               (fun m ->
                 List.filter
                   (fun i -> Cube.eval_int primes.(i) m)
                   (List.init (Array.length primes) Fun.id))
               on)
        in
        st.Qm.exact
        && Tt.implies on_t (Tt.of_cover c)
        && Tt.implies (Tt.of_cover c) (Tt.bor on_t dc_t)
        && Cover.num_cubes c
           = brute_min_cover ~num_sets:(Array.length primes) covered_by);
  ]

(* ------------------------------------------------------------------ *)
(* Espresso                                                            *)
(* ------------------------------------------------------------------ *)

let espresso_tests =
  [
    Alcotest.test_case "expand reaches primes" `Quick (fun () ->
        (* two adjacent minterms expand into one merged cube *)
        let c = Cover.of_minterms 3 [ 0b000; 0b100 ] in
        let e = Espresso.expand c in
        check_int "single prime" 1 (Cover.num_cubes e);
        check "semantics" true (Tt.equal (Tt.of_cover e) (Tt.of_cover c)));
    Alcotest.test_case "dc enlarges expansion" `Quick (fun () ->
        let on = Cover.of_minterms 2 [ 0b00 ] in
        let dc = Cover.of_minterms 2 [ 0b10 ] in
        let e = Espresso.expand ~dc on in
        (* x2' covers both: one literal *)
        check_int "one cube" 1 (Cover.num_cubes e);
        check_int "one literal" 1 (Cover.num_literals e));
    Alcotest.test_case "maj3 reaches the known optimum" `Quick (fun () ->
        let tt = Boolfunc.table (Parse.expr "x1x2 + x1x3 + x2x3") in
        let c = Espresso.minimize_table tt in
        check_int "three cubes" 3 (Cover.num_cubes c);
        check "semantics" true (Tt.equal (Tt.of_cover c) tt));
    U.qtest ~count:150 "minimize preserves semantics" (U.arb_table 5) (fun tt ->
        let start = Cover.of_minterms 5 (Tt.minterms tt) in
        Tt.equal (Tt.of_cover (Espresso.minimize start)) tt);
    U.qtest ~count:80 "minimize never worse than its input cover" (U.arb_cover 5)
      (fun c ->
        let m = Espresso.minimize c in
        Espresso.compare_cost (Espresso.cost_of m) (Espresso.cost_of c) <= 0
        && Tt.equal (Tt.of_cover m) (Tt.of_cover c));
    U.qtest ~count:80 "with don't-cares stays in the interval"
      QCheck.(pair (U.arb_table 4) (U.arb_table 4))
      (fun (on_tt, dc_tt) ->
        let dc_tt = Tt.bsub dc_tt on_tt in
        let on = Cover.of_minterms 4 (Tt.minterms on_tt) in
        let dc = Cover.of_minterms 4 (Tt.minterms dc_tt) in
        match Tt.is_const on_tt with
        | Some false -> true
        | _ ->
            let m = Tt.of_cover (Espresso.minimize ~dc on) in
            Tt.implies on_tt m && Tt.implies m (Tt.bor on_tt dc_tt));
    U.qtest ~count:60 "reduce keeps the function" (U.arb_cover 4) (fun c ->
        Tt.equal (Tt.of_cover (Espresso.reduce c)) (Tt.of_cover c));
    U.qtest ~count:60 "bracketed by ISOP above and exact QM below"
      (U.arb_table 4)
      (fun tt ->
        let exact, st = Qm.minimize_table tt in
        let esp = Cover.num_cubes (Espresso.minimize (Isop.isop tt)) in
        esp <= Cover.num_cubes (Isop.isop tt)
        && ((not st.Qm.exact) || esp >= Cover.num_cubes exact));
  ]

(* ------------------------------------------------------------------ *)
(* Dual                                                                *)
(* ------------------------------------------------------------------ *)

let dual_tests =
  [
    Alcotest.test_case "paper example: dual of xnor is xor" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1'x2'" in
        let d = Dual.func f in
        let xor = Parse.expr "x1x2' + x1'x2" in
        check "dual" true (Boolfunc.equal d xor);
        (* both have exactly 2 products, as the paper notes *)
        check_int "products of f" 2 (Cover.num_cubes (Minimize.sop f));
        check_int "products of fD" 2 (Cover.num_cubes (Minimize.sop d)));
    Alcotest.test_case "dual cover of AND" `Quick (fun () ->
        let c = Parse.expr_cover "x1x2" in
        let d = Dual.cover c in
        check_int "two products (x1 + x2)" 2 (Cover.num_cubes d);
        check "semantics" true
          (Tt.equal (Tt.of_cover d) (Tt.dual (Tt.of_cover c))));
    U.qtest ~count:80 "dual cover denotes the dual" (U.arb_table 5) (fun tt ->
        let c = Minimize.sop_table tt in
        Tt.equal (Tt.of_cover (Dual.cover c)) (Tt.dual tt));
    U.qtest ~count:200 "sharing lemma: products of f and fD always intersect"
      (U.arb_table 5)
      (fun tt ->
        let cf = Minimize.sop_table tt in
        let cd = Minimize.sop_table (Tt.dual tt) in
        Dual.check_sharing cf cd);
    U.qtest ~count:100 "sharing lemma holds for ISOP covers too" (U.arb_table 6)
      (fun tt -> Dual.check_sharing (Isop.isop tt) (Isop.isop (Tt.dual tt)));
  ]

(* ------------------------------------------------------------------ *)
(* Affine                                                              *)
(* ------------------------------------------------------------------ *)

let affine_tests =
  [
    Alcotest.test_case "hull of a single point has dimension 0" `Quick (fun () ->
        let s = Affine.affine_hull ~n:4 [ 0b1010 ] in
        check_int "dim" 0 (Affine.dimension s);
        Alcotest.(check (list int)) "points" [ 0b1010 ] (Affine.points s));
    Alcotest.test_case "hull of two points has dimension 1" `Quick (fun () ->
        let s = Affine.affine_hull ~n:4 [ 0b0000; 0b0110 ] in
        check_int "dim" 1 (Affine.dimension s);
        Alcotest.(check (list int)) "points" [ 0b0000; 0b0110 ] (Affine.points s));
    Alcotest.test_case "full space" `Quick (fun () ->
        let s = Affine.full_space 3 in
        check_int "dim" 3 (Affine.dimension s);
        check_int "all points" 8 (List.length (Affine.points s)));
    Alcotest.test_case "xnor is D-reducible" `Quick (fun () ->
        (* on-set {00,11} is the affine space x1 = x2 *)
        let f = Parse.expr "x1x2 + x1'x2'" in
        match Affine.d_reduction f with
        | None -> Alcotest.fail "expected a reduction"
        | Some r ->
            check_int "dim 1" 1 (Affine.dimension r.Affine.space);
            check "reconstructs" true
              (Tt.equal (Affine.reconstruct ~n:2 r) (Boolfunc.table f)));
    Alcotest.test_case "parity on-set is itself an affine space" `Quick (fun () ->
        let f = Parse.expr "x1 ^ x2 ^ x3" in
        match Affine.d_reduction f with
        | None -> Alcotest.fail "parity is the classic D-reducible function"
        | Some r ->
            check_int "dim 2" 2 (Affine.dimension r.Affine.space);
            check "projection is constant 1" true
              (Tt.is_const r.Affine.projection = Some true);
            check "reconstructs" true
              (Tt.equal (Affine.reconstruct ~n:3 r) (Boolfunc.table f)));
    Alcotest.test_case "majority3 is not D-reducible" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1x3 + x2x3" in
        check "hull is everything" true (Affine.d_reduction f = None));
    Alcotest.test_case "chi matches membership" `Quick (fun () ->
        let s = Affine.affine_hull ~n:4 [ 1; 2; 4; 7 ] in
        let chi = Affine.chi s in
        for m = 0 to 15 do
          check "chi" (Affine.mem s m) (Tt.eval_int chi m)
        done);
    U.qtest "hull contains its generators"
      QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (int_bound 31))
      (fun pts ->
        let s = Affine.affine_hull ~n:5 pts in
        List.for_all (Affine.mem s) pts);
    U.qtest "hull is a closed affine set of the right size"
      QCheck.(list_of_size (QCheck.Gen.int_range 1 6) (int_bound 31))
      (fun pts ->
        let s = Affine.affine_hull ~n:5 pts in
        let hull_points = Affine.points s in
        let s2 = Affine.affine_hull ~n:5 hull_points in
        Affine.dimension s = Affine.dimension s2
        && List.length hull_points = 1 lsl Affine.dimension s
        && List.length (List.sort_uniq compare pts) <= List.length hull_points);
    U.qtest ~count:200 "d_reduction reconstructs f" (U.arb_table 5) (fun tt ->
        let f = Boolfunc.make tt in
        match Affine.d_reduction f with
        | None -> true
        | Some r -> Tt.equal (Affine.reconstruct ~n:5 r) tt);
    U.qtest ~count:100 "functions forced into a subspace are D-reducible"
      QCheck.(pair (U.arb_table 4) (int_bound 3))
      (fun (tt, v) ->
        (* f AND x_v has its on-set inside the hyperplane x_v = 1 *)
        let g = Tt.band (Tt.lift tt 5 [| 0; 1; 2; 3 |]) (Tt.var 5 v) in
        match Tt.is_const g with
        | Some false -> true
        | _ -> (
            match Affine.d_reduction (Boolfunc.make g) with
            | None -> false
            | Some r ->
                Affine.dimension r.Affine.space <= 4
                && Tt.equal (Affine.reconstruct ~n:5 r) g));
  ]

(* ------------------------------------------------------------------ *)
(* Pcircuit                                                            *)
(* ------------------------------------------------------------------ *)

let pcircuit_tests =
  [
    Alcotest.test_case "decompose parity" `Quick (fun () ->
        let f = Parse.expr "x1 ^ x2 ^ x3" in
        let d = Pcircuit.decompose ~var:0 ~pol:true f in
        check "valid" true (Pcircuit.is_valid f d);
        (* the two cofactors of a parity are disjoint: intersection empty *)
        check "empty intersection" true
          (Tt.is_const d.Pcircuit.f_int = Some false));
    Alcotest.test_case "components do not depend on the split variable" `Quick
      (fun () ->
        let f = Parse.expr "x1x2 + x2x3 + x1'x3'" in
        let d = Pcircuit.decompose ~var:1 ~pol:false f in
        check "f_eq" false (Tt.depends_on d.Pcircuit.f_eq 1);
        check "f_neq" false (Tt.depends_on d.Pcircuit.f_neq 1);
        check "f_int" false (Tt.depends_on d.Pcircuit.f_int 1));
    Alcotest.test_case "projected components are disjoint from I" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x3" in
        let d = Pcircuit.decompose ~var:0 ~pol:true f in
        check "f_eq disjoint from f_int" true
          (Tt.is_const (Tt.band d.Pcircuit.f_eq d.Pcircuit.f_int) = Some false));
    U.qtest ~count:200 "projected decomposition is valid for every var and pol"
      QCheck.(triple (U.arb_table 5) (int_bound 4) bool)
      (fun (tt, var, pol) ->
        let f = Boolfunc.make tt in
        Pcircuit.is_valid f (Pcircuit.decompose ~var ~pol f));
    U.qtest ~count:100 "shannon decomposition is valid for every var and pol"
      QCheck.(triple (U.arb_table 5) (int_bound 4) bool)
      (fun (tt, var, pol) ->
        let f = Boolfunc.make tt in
        Pcircuit.is_valid f
          (Pcircuit.decompose ~strategy:Pcircuit.Shannon ~var ~pol f));
    U.qtest ~count:60 "best decomposition is valid" (U.arb_table 4) (fun tt ->
        let f = Boolfunc.make tt in
        Pcircuit.is_valid f (Pcircuit.best f));
  ]

(* ------------------------------------------------------------------ *)
(* Edge cases and fallback paths                                       *)
(* ------------------------------------------------------------------ *)

let edge_tests =
  [
    Alcotest.test_case "QM budget exhaustion falls back to greedy" `Quick
      (fun () ->
        (* a function with enough primes that covering needs branching *)
        let tt = Tt.random 6 ~seed:99 in
        let cover, st = Qm.minimize ~budget:1 ~n:6 (Tt.minterms tt) in
        check "still covers" true (Tt.equal (Tt.of_cover cover) tt);
        check "flagged inexact" false st.Qm.exact);
    Alcotest.test_case "QM on the empty on-set" `Quick (fun () ->
        let c, st = Qm.minimize ~n:4 [] in
        check "bottom" true (Cover.is_bottom c);
        check "exact" true st.Qm.exact);
    Alcotest.test_case "isop rejects inverted intervals" `Quick (fun () ->
        let upper = Tt.create 3 false and lower = Tt.create 3 true in
        check "raises" true
          (match Isop.isop ~lower upper with
          | exception Invalid_argument _ -> true
          | _ -> false));
    Alcotest.test_case "espresso cost ordering" `Quick (fun () ->
        let a = { Espresso.cubes = 2; literals = 5 } in
        let b = { Espresso.cubes = 2; literals = 7 } in
        let c = { Espresso.cubes = 3; literals = 1 } in
        check "literals break ties" true (Espresso.compare_cost a b < 0);
        check "cubes dominate" true (Espresso.compare_cost b c < 0));
    Alcotest.test_case "pla_of_functions roundtrips through text" `Quick
      (fun () ->
        let fs = [ Parse.expr ~n:3 "x1x2 + x3'"; Parse.expr ~n:3 "x2 ^ x3" ] in
        let p = Parse.pla_of_functions fs in
        let p' = Parse.pla_of_string (Parse.pla_to_string p) in
        List.iteri
          (fun o f ->
            check "same function" true
              (Tt.equal (Tt.of_cover p'.Parse.on_sets.(o)) (Boolfunc.table f)))
          fs);
    Alcotest.test_case "espresso improves an isop cover" `Quick (fun () ->
        let f = Parse.expr "x1x2 + x1x3 + x2x3" in
        let c = Espresso.minimize (Isop.isop (Boolfunc.table f)) in
        check "verified" true (Minimize.verify c f));
    Alcotest.test_case "boolfunc operators" `Quick (fun () ->
        let a = Parse.expr ~n:2 "x1" and b = Parse.expr ~n:2 "x2" in
        check "and" true
          (Boolfunc.eval_int (Boolfunc.band a b) 0b11
          && not (Boolfunc.eval_int (Boolfunc.band a b) 0b01));
        check "xor" true (Boolfunc.eval_int (Boolfunc.bxor a b) 0b01);
        check "complement" true
          (Boolfunc.eval_int (Boolfunc.complement a) 0b10);
        check "named" true (Boolfunc.name (Boolfunc.with_name "g" a) = "g"));
    Alcotest.test_case "bdd ite" `Quick (fun () ->
        let man = Bdd.manager () in
        let c = Bdd.var man 0 and t = Bdd.var man 1 and e = Bdd.var man 2 in
        let f = Bdd.ite man c t e in
        check "c=1 takes t" true (Bdd.eval f [| true; true; false |]);
        check "c=0 takes e" true (Bdd.eval f [| false; false; true |]);
        check "c=0, e=0" false (Bdd.eval f [| false; true; false |]));
  ]

let () =
  Alcotest.run "logic-algs"
    [
      ("bdd", bdd_tests);
      ("parse", parse_tests);
      ("sop", sop_tests);
      ("espresso", espresso_tests);
      ("dual", dual_tests);
      ("affine", affine_tests);
      ("pcircuit", pcircuit_tests);
      ("edge_cases", edge_tests);
    ]
