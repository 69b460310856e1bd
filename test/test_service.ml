(* Service-layer tests: NPN canonicalization, the result cache, job
   parsing and the engine's determinism/cache-equivalence contracts. *)

open Nxc_logic
module Tt = Truth_table
module Svc = Nxc_service
module G = Nxc_guard
module J = Nxc_obs.Json

(* ---------------- NPN transform enumeration (test-local) ----------- *)

let permutations n =
  let rec go prefix remaining acc =
    match remaining with
    | [] -> Array.of_list (List.rev prefix) :: acc
    | _ ->
        List.fold_left
          (fun acc x ->
            go (x :: prefix) (List.filter (fun y -> y <> x) remaining) acc)
          acc remaining
  in
  List.rev (go [] (List.init n (fun i -> i)) [])

let all_transforms n =
  List.concat_map
    (fun perm ->
      List.concat_map
        (fun mask ->
          let input_neg = Array.init n (fun i -> (mask lsr i) land 1 = 1) in
          [ { Npn.perm; input_neg; output_neg = false };
            { Npn.perm; input_neg; output_neg = true } ])
        (List.init (1 lsl n) (fun m -> m)))
    (permutations n)

(* ---------------- NPN canonicalization ----------------------------- *)

let test_npn_identity () =
  let f = Tt.random 3 ~seed:17 in
  Alcotest.(check bool)
    "identity transform is a no-op" true
    (Tt.equal (Npn.apply (Npn.identity 3) f) f)

let test_npn_num_transforms () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "num_transforms %d" n)
        (List.length (all_transforms n))
        (Npn.num_transforms n))
    [ 1; 2; 3; 4 ]

(* the synth cache's key: the table up to output phase *)
let key f = Npn.table_key (snd (Npn.canonical f))

(* the keying law: over all 2^(n+1)*n! transforms of f, two images get
   equal keys exactly when their tables are equal or complements *)
let npn_key_law n f =
  let images =
    List.map (fun t -> let g = Npn.apply t f in (g, key g)) (all_transforms n)
  in
  List.for_all
    (fun (g1, k1) ->
      List.for_all
        (fun (g2, k2) ->
          String.equal k1 k2 = (Tt.equal g1 g2 || Tt.equal g1 (Tt.bnot g2)))
        images)
    images

let test_npn_class_n4 () =
  (* deterministic n = 4 witness: all 768 transforms *)
  let f = Boolfunc.table (Parse.expr "(x1 + x2')(x3 + x4) + x1'x3'") in
  Alcotest.(check bool) "768 transforms, keyed by table up to phase" true
    (npn_key_law 4 f)

let test_npn_canonical_transform () =
  (* canonical returns a witness transform, the identity on the inputs:
     apply t f = g *)
  List.iter
    (fun seed ->
      let f = Tt.random 3 ~seed in
      let t, g = Npn.canonical f in
      Alcotest.(check bool) "apply t f = g" true (Tt.equal (Npn.apply t f) g);
      Alcotest.(check bool) "inputs untouched" true
        (Tt.equal (Npn.apply { t with Npn.output_neg = false } f) f))
    [ 1; 2; 3; 4; 5 ]

let test_npn_semi_above_limit () =
  (* every arity is above the limit: the key unifies output phase and
     nothing else *)
  for n = Npn.exhaustive_limit + 1 to 8 do
    let f = Tt.random n ~seed:n in
    let name = Printf.sprintf "n=%d" n in
    Alcotest.(check string) (name ^ ": output phase unified") (key f)
      (key (Tt.bnot f));
    let g = snd (Npn.canonical f) in
    Alcotest.(check bool) (name ^ ": canonical is f or not f") true
      (Tt.equal g f || Tt.equal g (Tt.bnot f));
    let rotate = Array.init n (fun i -> (i + 1) mod n) in
    let h = Npn.apply { (Npn.identity n) with Npn.perm = rotate } f in
    if not (Tt.equal h f || Tt.equal h (Tt.bnot f)) then
      Alcotest.(check bool) (name ^ ": a permuted variant keys apart") false
        (String.equal (key f) (key h))
  done

(* ---------------- cover transforms --------------------------------- *)

let cover_semantics_prop (c, t) =
  (* cover_to_canon relabels a cover of f into a cover of the NP image *)
  let f = Tt.of_cover c in
  let g = Npn.apply { t with Npn.output_neg = false } f in
  Tt.equal (Tt.of_cover (Npn.cover_to_canon t c)) g

let cover_roundtrip_prop (c, t) =
  let c' = Npn.cover_of_canon t (Npn.cover_to_canon t c) in
  String.equal (Cover.to_string c) (Cover.to_string c')

let arb_cover_transform n =
  let gen =
    QCheck.Gen.(
      pair (Testutil.gen_cover n)
        (map
           (fun (i, mask, o) ->
             let perms = permutations n in
             { Npn.perm = List.nth perms (i mod List.length perms);
               input_neg = Array.init n (fun v -> (mask lsr v) land 1 = 1);
               output_neg = o })
           (triple nat (int_bound ((1 lsl n) - 1)) bool)))
  in
  QCheck.make ~print:(fun (c, _) -> Cover.to_string c) gen

(* ---------------- cache ------------------------------------------- *)

(* cache traffic is counted only in the metric registry, so tests read
   the [service.cache.*] counters before and after the operations *)
let cache_count name =
  Nxc_obs.Metrics.counter_value
    (Nxc_obs.Metrics.counter ("service.cache." ^ name))

let test_cache_lru () =
  let h0 = cache_count "hits"
  and m0 = cache_count "misses"
  and e0 = cache_count "evictions" in
  let c = Svc.Cache.create ~capacity:2 () in
  Svc.Cache.add c "a" (J.Int 1);
  Svc.Cache.add c "b" (J.Int 2);
  ignore (Svc.Cache.find c "a");
  (* recency: a fresher than b *)
  Svc.Cache.add c "c" (J.Int 3);
  (* evicts b *)
  Alcotest.(check int) "size at capacity" 2 (Svc.Cache.size c);
  Alcotest.(check int) "one eviction" 1 (cache_count "evictions" - e0);
  Alcotest.(check bool) "a survives" true (Svc.Cache.peek c "a" <> None);
  Alcotest.(check bool) "b evicted" true (Svc.Cache.peek c "b" = None);
  ignore (Svc.Cache.find c "b");
  Alcotest.(check int) "hits counted" 1 (cache_count "hits" - h0);
  Alcotest.(check int) "misses counted" 1 (cache_count "misses" - m0)

let test_cache_save_load () =
  let path = Filename.temp_file "nxc-cache" ".jsonl" in
  let c = Svc.Cache.create () in
  Svc.Cache.add c "k2" (J.Obj [ ("x", J.Int 2) ]);
  Svc.Cache.add c "k1" (J.Str "one");
  (match Svc.Cache.save c path with
  | Ok n -> Alcotest.(check int) "saved" 2 n
  | Error e -> Alcotest.failf "save: %s" (G.Error.to_string e));
  let c' = Svc.Cache.create () in
  (match Svc.Cache.load c' path with
  | Ok n -> Alcotest.(check int) "loaded" 2 n
  | Error e -> Alcotest.failf "load: %s" (G.Error.to_string e));
  Alcotest.(check bool)
    "value roundtrips" true
    (Svc.Cache.peek c' "k1" = Some (J.Str "one"));
  Sys.remove path;
  (* a missing file is an empty cache, not an error *)
  (match Svc.Cache.load c' path with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "missing file loaded %d entries" n
  | Error e -> Alcotest.failf "missing file: %s" (G.Error.to_string e));
  (* a malformed line reports its position *)
  let oc = open_out path in
  output_string oc "{\"k\":\"a\",\"v\":1}\nnot json\n";
  close_out oc;
  (match Svc.Cache.load (Svc.Cache.create ()) path with
  | Error (`Invalid_input { G.Error.line = Some 2; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (G.Error.to_string e)
  | Ok _ -> Alcotest.fail "malformed line accepted");
  Sys.remove path

let test_cache_warm_from_disk_lru () =
  (* satellite: persistence replay refreshes recency like a hit, so a
     warmed-from-disk cache evicts in true LRU order *)
  let path = Filename.temp_file "nxc-cache" ".jsonl" in
  let c = Svc.Cache.create ~capacity:2 () in
  Svc.Cache.add c "a" (J.Int 1);
  Svc.Cache.add c "b" (J.Int 2);
  (match Svc.Cache.save c path with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "save");
  let w = Svc.Cache.create ~capacity:2 () in
  (match Svc.Cache.load w path with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "load");
  (* replay order is the sorted key order (a then b); finding a makes b
     the LRU entry, so the next insert must evict b, not a *)
  ignore (Svc.Cache.find w "a");
  Svc.Cache.add w "c" (J.Int 3);
  Alcotest.(check bool) "a survives the warm insert" true
    (Svc.Cache.peek w "a" <> None);
  Alcotest.(check bool) "b is the true LRU victim" true
    (Svc.Cache.peek w "b" = None);
  (* re-loading over a warm cache refreshes recency too *)
  (match Svc.Cache.load w path with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "reload");
  ignore (Svc.Cache.find w "c") (* miss: c was evicted when b returned *);
  Sys.remove path

(* ---------------- sharded cache laws ------------------------------- *)

(* random op scripts over a small key alphabet *)
let shard_keys =
  [| "npn:0xabc+"; "npn:0xdef-"; "job:bist:4x4"; "job:yield:16"; "k4"; "k5";
     "a-rather-longer-key-6"; "k7" |]

type cache_op = Add of int * int | Find of int | Peek of int

let arb_cache_ops =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 60)
        (map2
           (fun tag (k, v) ->
             let k = k mod Array.length shard_keys in
             match tag mod 3 with
             | 0 -> Add (k, v)
             | 1 -> Find k
             | _ -> Peek k)
           (int_bound 2)
           (pair nat (int_bound 100))))
  in
  let print ops =
    String.concat ";"
      (List.map
         (function
           | Add (k, v) -> Printf.sprintf "add %d %d" k v
           | Find k -> Printf.sprintf "find %d" k
           | Peek k -> Printf.sprintf "peek %d" k)
         ops)
  in
  QCheck.make ~print gen

let run_ops cache ops =
  (* observable trace: per-op result plus running counters *)
  let h0 = cache_count "hits" and m0 = cache_count "misses" in
  List.map
    (fun op ->
      let r =
        match op with
        | Add (k, v) ->
            Svc.Cache.add cache shard_keys.(k) (J.Int v);
            None
        | Find k -> Svc.Cache.find cache shard_keys.(k)
        | Peek k -> Svc.Cache.peek cache shard_keys.(k)
      in
      (r, cache_count "hits" - h0, cache_count "misses" - m0))
    ops

let qcheck_shard_stable =
  Testutil.qtest ~count:50 "cache: shard routing is stable"
    (QCheck.int_range 1 8)
    (fun shards ->
      let c = Svc.Cache.create ~shards () in
      let c' = Svc.Cache.create ~shards () in
      Array.for_all
        (fun key ->
          let s = Svc.Cache.shard_of c key in
          s = Svc.Cache.shard_of c key
          && s = Svc.Cache.shard_of c' key
          && s >= 0
          && s < Svc.Cache.shards c)
        shard_keys)

let qcheck_shard_equiv =
  (* below eviction pressure, a sharded cache is observationally equal
     to the single-shard one: same values, same hit/miss sequence *)
  Testutil.qtest ~count:100 "cache: sharded = single-shard (no eviction)"
    (QCheck.pair arb_cache_ops (QCheck.int_range 2 8))
    (fun (ops, shards) ->
      let one = Svc.Cache.create ~capacity:1024 () in
      let many = Svc.Cache.create ~capacity:1024 ~shards () in
      run_ops one ops = run_ops many ops)

let qcheck_shard_persistence =
  (* the save file is byte-identical for every shard count, and load
     round-trips values across shard counts *)
  Testutil.qtest ~count:60 "cache: persistence across shard counts"
    (QCheck.triple arb_cache_ops (QCheck.int_range 1 8)
       (QCheck.int_range 1 8))
    (fun (ops, s1, s2) ->
      let save_bytes shards =
        let c = Svc.Cache.create ~shards () in
        ignore (run_ops c ops);
        let path = Filename.temp_file "nxc-shard" ".jsonl" in
        (match Svc.Cache.save c path with
        | Ok _ -> ()
        | Error _ -> QCheck.Test.fail_report "save failed");
        let ic = open_in_bin path in
        let len = in_channel_length ic in
        let bytes = really_input_string ic len in
        close_in ic;
        (c, path, bytes)
      in
      let c1, p1, b1 = save_bytes s1 in
      let _, p2, b2 = save_bytes s2 in
      let r = Svc.Cache.create ~shards:s2 () in
      (match Svc.Cache.load r p1 with
      | Ok _ -> ()
      | Error _ -> QCheck.Test.fail_report "load failed");
      let roundtrips =
        Array.for_all
          (fun key -> Svc.Cache.peek r key = Svc.Cache.peek c1 key)
          shard_keys
      in
      Sys.remove p1;
      Sys.remove p2;
      String.equal b1 b2 && roundtrips)

(* ---------------- job parsing -------------------------------------- *)

let test_job_parse_ok () =
  List.iter
    (fun line ->
      match Svc.Job.of_line line with
      | Ok j ->
          (* canonical re-serialization parses back to the same job *)
          let rt = Svc.Job.of_json (Svc.Job.to_json j) in
          Alcotest.(check bool)
            ("roundtrip " ^ line)
            true
            (rt = Ok j)
      | Error e -> Alcotest.failf "%s: %s" line (G.Error.to_string e))
    [ {|{"kind":"synth","expr":"x1x2 + x1'x2'"}|};
      {|{"id":"j1","kind":"synth","expr":"x1 ^ x2","budget_steps":500}|};
      {|{"kind":"flow","expr":"x1 ^ x2"}|};
      {|{"kind":"bist","rows":4,"cols":6}|};
      {|{"kind":"bism","n":24,"k":10,"scheme":"greedy"}|};
      {|{"kind":"yield","n":16,"trials":5}|} ]

let test_job_parse_bad () =
  List.iter
    (fun line ->
      match Svc.Job.of_line line with
      | Error (`Invalid_input _) -> ()
      | Error e -> Alcotest.failf "%s: wrong error %s" line (G.Error.to_string e)
      | Ok _ -> Alcotest.failf "accepted: %s" line)
    [ "not json";
      {|{"expr":"x1"}|};
      {|{"kind":"frobnicate"}|};
      {|{"kind":"synth"}|};
      {|{"kind":"synth","expr":"x1","bogus":1}|};
      {|{"kind":"bism","n":24,"k":10,"scheme":"psychic"}|};
      {|{"kind":"bist","rows":0,"cols":4}|};
      {|{"kind":"yield","n":16,"density":1.5}|};
      {|{"kind":"bism","n":4,"k":10}|};
      {|{"kind":"repair","trials":0}|};
      {|{"kind":"repair","mode":"psychic"}|};
      {|{"kind":"synth","expr":"x1","cover_backend":"zdd"}|} ]

(* ---------------- engine ------------------------------------------- *)

let synth_line expr =
  J.to_string
    (Svc.Job.to_json
       { Svc.Job.id = None; budget_steps = None;
         spec = Svc.Job.Synth { expr; cover_backend = "bnb" } })

let envelope_strings outcomes =
  List.map (fun (o : Svc.Engine.outcome) -> J.to_string o.envelope) outcomes

(* jobs built in code reach the engine as [Job.to_json] lines, so an
   out-of-range spec the record type admits must still come back as an
   invalid-input envelope *)
let test_engine_validates_built_jobs () =
  let line spec =
    J.to_string
      (Svc.Job.to_json { Svc.Job.id = None; budget_steps = None; spec })
  in
  let outs =
    Svc.Engine.run_lines
      [ line (Svc.Job.Bism
                { n = 4; k = 10; density = 0.05; seed = 1; trials = 2;
                  scheme = "greedy" });
        line (Svc.Job.Repair
                { rows = 4; cols = 4; spare_rows = 1; spare_cols = 1;
                  density = 0.05; seed = 1; trials = 2; mode = "psychic" }) ]
  in
  Alcotest.(check (list int)) "invalid input" [ 3; 3 ]
    (List.map (fun (o : Svc.Engine.outcome) -> o.exit_code) outs)

(* synth jobs are keyed by their own table: a permuted spelling misses,
   an exact repeat hits, and both return verified covers of the function
   they asked for *)
let test_engine_npn_hit () =
  let cache = Svc.Cache.create () in
  let run expr = List.hd (Svc.Engine.run_lines ~cache [ synth_line expr ]) in
  let field name o =
    match o with
    | { Svc.Engine.envelope = J.Obj kvs; _ } -> (
        match List.assoc "result" kvs with
        | J.Obj r -> List.assoc name r
        | _ -> Alcotest.fail "no result object")
    | _ -> Alcotest.fail "envelope not an object"
  in
  let base = "x1x2 + x2x3 + x1'x3'" and variant = "x2x3 + x3x1 + x2'x1'" in
  ignore (run base);
  let h0 = cache_count "hits" and m0 = cache_count "misses" in
  let permuted = run variant in
  Alcotest.(check int) "permuted spelling misses" (m0 + 1)
    (cache_count "misses");
  let repeat = run variant in
  Alcotest.(check int) "exact repeat hits" (h0 + 1) (cache_count "hits");
  List.iter
    (fun o ->
      Alcotest.(check bool) "verified" true
        (field "verified" o = J.Bool true);
      match field "cover" o with
      | J.Str s ->
          Alcotest.(check bool) "cover computes the requested function" true
            (Boolfunc.equal (Parse.expr ~n:3 s) (Parse.expr variant))
      | _ -> Alcotest.fail "cover not a string")
    [ permuted; repeat ]

let qcheck_engine_history =
  (* random 4-var function, random NP transform: the variant's envelope
     is the same bytes on a fresh cache and on one the base filled *)
  Testutil.qtest ~count:100 "engine: envelope ignores cache history"
    (QCheck.pair (Testutil.arb_table 4)
       (QCheck.make QCheck.Gen.(pair (int_bound 23) (int_bound 15))))
    (fun (f, (pi, mask)) ->
      (* full support: Parse.expr infers arity from the highest variable
         mentioned, so a vanishing x4 would change the parsed arity *)
      QCheck.assume (Tt.support f = [ 0; 1; 2; 3 ]);
      let t =
        { Npn.perm = List.nth (permutations 4) pi;
          input_neg = Array.init 4 (fun v -> (mask lsr v) land 1 = 1);
          output_neg = false }
      in
      let line tt = synth_line (Cover.to_string (Minimize.sop_table tt)) in
      let fresh = Svc.Engine.run_lines [ line (Npn.apply t f) ] in
      let cache = Svc.Cache.create () in
      ignore (Svc.Engine.run_lines ~cache [ line f ]);
      let filled = Svc.Engine.run_lines ~cache [ line (Npn.apply t f) ] in
      envelope_strings fresh = envelope_strings filled)

let test_engine_determinism () =
  let lines =
    [ {|{"id":"a","kind":"synth","expr":"x1x2 + x1'x2'"}|};
      {|{"id":"b","kind":"synth","expr":"x1'x2 + x1x2'"}|};
      {|{"id":"c","kind":"bist","rows":4,"cols":4}|};
      {|{"id":"d","kind":"yield","n":12,"density":0.05,"seed":1,"trials":5}|};
      "boom" ]
  in
  let seq = envelope_strings (Svc.Engine.run_lines lines) in
  let par =
    Nxc_par.Pool.with_jobs 2 (fun pool ->
        envelope_strings (Svc.Engine.run_lines ?pool lines))
  in
  Alcotest.(check (list string)) "pool never changes envelopes" seq par;
  (* warm cache: identical bytes again *)
  let cache = Svc.Cache.create () in
  let cold = envelope_strings (Svc.Engine.run_lines ~cache lines) in
  let warm = envelope_strings (Svc.Engine.run_lines ~cache lines) in
  Alcotest.(check (list string)) "warm = cold" cold warm;
  Alcotest.(check (list string)) "cache never changes envelopes" seq cold;
  Alcotest.(check int) "bad line exits 3" 3
    (Svc.Engine.batch_exit (Svc.Engine.run_lines lines))

(* ---------------- stream ------------------------------------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let stream_lines =
  [ {|{"id":"a","kind":"synth","expr":"x1x2 + x1'x2'"}|};
    {|{"id":"b","kind":"synth","expr":"x1'x2 + x1x2'"}|};
    {|{"id":"c","kind":"bist","rows":4,"cols":4}|};
    {|{"id":"a2","kind":"synth","expr":"x1x2 + x1'x2'"}|} (* repeat class *);
    "boom";
    {|{"id":"a","kind":"synth","expr":"x1x2 + x1'x2'"}|} (* exact repeat *) ]

let push_all stream lines =
  (* explicit sequencing: pushes strictly before the final drain *)
  let outs = List.concat_map (fun l -> Svc.Engine.Stream.push stream l) lines in
  outs @ Svc.Engine.Stream.flush stream

let test_stream_determinism () =
  (* streamed envelopes are byte-identical to resolving each line as a
     one-line batch, in input order, for every window size — including
     memo-hit repeats *)
  let baseline =
    let cache = Svc.Cache.create () in
    envelope_strings
      (List.concat_map (fun l -> Svc.Engine.run_lines ~cache [ l ]) stream_lines)
  in
  List.iter
    (fun window ->
      let stream = Svc.Engine.Stream.create ~window () in
      let outs = push_all stream stream_lines in
      Alcotest.(check (list string))
        (Printf.sprintf "window %d = one-line batches" window)
        baseline (envelope_strings outs))
    [ 1; 2; 3; 17 ];
  (* and under a pool, sharded like the CLI would *)
  Nxc_par.Pool.with_jobs 2 (fun pool ->
      let cache = Svc.Cache.create ~shards:2 () in
      let stream = Svc.Engine.Stream.create ?pool ~cache () in
      let outs = push_all stream stream_lines in
      Alcotest.(check (list string)) "pooled stream = one-line batches"
        baseline (envelope_strings outs))

let test_stream_memo () =
  let stream = Svc.Engine.Stream.create ~window:2 () in
  let first = push_all stream [ List.hd stream_lines; List.hd stream_lines ] in
  Alcotest.(check int) "both answered" 2 (List.length first);
  Alcotest.(check bool) "second is a memo/cache hit" true
    ((List.nth first 1).Svc.Engine.cached);
  Alcotest.(check (list string)) "identical bytes"
    [ List.hd (envelope_strings first) ]
    [ List.nth (envelope_strings first) 1 ]

let test_stream_admission () =
  (* a 0ms deadline deterministically rejects everything with the
     budget-exhaustion contract, immediately (nothing queued) *)
  let stream = Svc.Engine.Stream.create ~window:8 ~deadline_ms:0.0 () in
  List.iter
    (fun line ->
      match Svc.Engine.Stream.push stream line with
      | [ o ] ->
          Alcotest.(check int) "admission rejection exits 4" 4 o.exit_code;
          let s = J.to_string o.envelope in
          Alcotest.(check bool) "labelled admission" true
            (contains s "admission")
      | outs -> Alcotest.failf "expected 1 rejection, got %d" (List.length outs))
    stream_lines;
  Alcotest.(check int) "nothing pending" 0 (Svc.Engine.Stream.pending stream);
  Alcotest.(check (list string)) "drain is empty" []
    (envelope_strings (Svc.Engine.Stream.flush stream))

let test_stream_backpressure () =
  (* Fail-policy ambient budget: each admitted job costs one step; the
     third push is rejected with the budget's own error *)
  let b = G.Budget.create ~label:"serve" ~policy:G.Budget.Fail ~steps:2 () in
  G.Budget.with_current b (fun () ->
      let stream = Svc.Engine.Stream.create ~window:8 () in
      (match Svc.Engine.Stream.push stream (List.hd stream_lines) with
      | [] -> ()
      | _ -> Alcotest.fail "admitted job answered early");
      ignore (Svc.Engine.Stream.push stream (List.nth stream_lines 1));
      (* third admission trips the budget: the rejection is decided now
         but held behind the two queued jobs to preserve output order *)
      (match Svc.Engine.Stream.push stream (List.nth stream_lines 2) with
      | [] -> ()
      | _ -> Alcotest.fail "rejection jumped the queue");
      Alcotest.(check int) "three entries pending" 3
        (Svc.Engine.Stream.pending stream);
      match Svc.Engine.Stream.flush stream with
      | [ _; _; o ] ->
          Alcotest.(check int) "budget rejection exits 4" 4 o.Svc.Engine.exit_code;
          Alcotest.(check bool) "carries the budget's own label" true
            (contains (J.to_string o.Svc.Engine.envelope) "serve")
      | outs -> Alcotest.failf "expected 3 outcomes, got %d" (List.length outs));
  (* Degrade-policy budget: the window collapses to 1 instead *)
  let b = G.Budget.create ~label:"serve" ~steps:1 () in
  G.Budget.with_current b (fun () ->
      let stream = Svc.Engine.Stream.create ~window:8 () in
      ignore (Svc.Engine.Stream.push stream (List.hd stream_lines));
      ignore (Svc.Engine.Stream.push stream (List.nth stream_lines 1));
      Alcotest.(check int) "window degraded to 1" 1
        (Svc.Engine.Stream.window stream))

let () =
  Alcotest.run "service"
    [ ( "npn",
        [ Alcotest.test_case "identity" `Quick test_npn_identity;
          Alcotest.test_case "num_transforms" `Quick test_npn_num_transforms;
          Testutil.qtest ~count:60
            "keys equal iff equal up to phase (n<=3)"
            (Testutil.arb_table_sized 3)
            (fun f -> npn_key_law (Tt.n_vars f) f);
          Alcotest.test_case "all 768 transforms n=4" `Quick test_npn_class_n4;
          Alcotest.test_case "canonical witness" `Quick
            test_npn_canonical_transform;
          Alcotest.test_case "semi-canonical above limit" `Quick
            test_npn_semi_above_limit ] );
      ( "covers",
        [ Testutil.qtest ~count:100 "cover_to_canon semantics"
            (arb_cover_transform 3) cover_semantics_prop;
          Testutil.qtest ~count:100 "cover roundtrip" (arb_cover_transform 4)
            cover_roundtrip_prop ] );
      ( "cache",
        [ Alcotest.test_case "lru eviction and counters" `Quick test_cache_lru;
          Alcotest.test_case "save/load" `Quick test_cache_save_load;
          Alcotest.test_case "warm-from-disk true LRU" `Quick
            test_cache_warm_from_disk_lru;
          qcheck_shard_stable;
          qcheck_shard_equiv;
          qcheck_shard_persistence ] );
      ( "job",
        [ Alcotest.test_case "valid specs" `Quick test_job_parse_ok;
          Alcotest.test_case "malformed specs" `Quick test_job_parse_bad ] );
      ( "engine",
        [ Alcotest.test_case "npn cache hit" `Quick test_engine_npn_hit;
          qcheck_engine_history;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "validates built jobs" `Quick
            test_engine_validates_built_jobs ] );
      ( "stream",
        [ Alcotest.test_case "determinism vs synchronous loop" `Quick
            test_stream_determinism;
          Alcotest.test_case "response memo" `Quick test_stream_memo;
          Alcotest.test_case "deadline admission" `Quick test_stream_admission;
          Alcotest.test_case "budget backpressure" `Quick
            test_stream_backpressure ] ) ]
