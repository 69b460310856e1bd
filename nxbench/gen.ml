(* Seeded workload generators.

   Each workload is one "pass": a fixed-size list of JSONL job lines
   plus what the benchmark expects back for each.  [make name seed]
   builds it from the seed alone; the program under test only ever
   sees the lines.

   Every workload draws its *functions* from a catalogue built from a
   constant seed, and the run seed decides how they are spelled
   (input permutation, input negation, cube and literal order and,
   outside npn_hot, syntax),
   in which order they arrive, which classes start cached and the seeds
   of the simulation jobs.  Seeds therefore differ in arrangement, not
   in difficulty: the amount of work and the result quality of a pass
   stay comparable from one seed to the next, which is what lets ten
   seeds agree within the benchmark's bounds.  Spellings never negate
   the output, because that changes the function's covers (and so its
   area), not just its key. *)

(* a cube is a list of (0-based input, positive?) literals *)
type sop = (int * bool) list list

type expect =
  | Synth of { n : int; table : bool array }
      (** the requested truth table; bit [i] of a minterm index is
          input [x(i+1)] *)
  | Flow
  | Bism of { trials : int }
  | Bist
  | Yield of { n : int }
  | Repair of { trials : int }

type job = { line : string; expect : expect }

type mode =
  | Stream  (** [Engine.Stream]: the [serve --jobs 2] path *)
  | Batch  (** [Engine.run_lines] per window: the [batch --jobs 2] path *)

type t = {
  why : string;  (** why the workload exists *)
  stresses : string;  (** the layers it should stress *)
  spares : string;  (** the layers it should not move *)
  mode : mode;
  jobs : job array;  (** one pass, in submission order *)
  warm : string list;
      (** lines whose results make up the persisted cache the pass
          starts from (empty: the pass starts from a fresh cache) *)
}

let names = [ "npn_hot"; "synth_cold"; "fault_flow" ]

(* Seeds used while tuning the benchmark are 1..10.  Claims about a
   change should also be checked on this seed, which was never used to
   tune anything. *)
let held_out_seed = 917_2017

let catalogue_seed = 0x5eed

(* ------------------------------------------------------------------ *)
(* truth tables and spellings                                          *)
(* ------------------------------------------------------------------ *)

let eval_cube m cube =
  List.for_all (fun (v, pos) -> (m lsr v) land 1 = 1 = pos) cube

let eval_sop (f : sop) m = List.exists (eval_cube m) f
let table n f = Array.init (1 lsl n) (eval_sop f)

let full_support n tbl =
  let ok = ref true in
  for v = 0 to n - 1 do
    let depends = ref false in
    Array.iteri
      (fun m b -> if b <> tbl.(m lxor (1 lsl v)) then depends := true)
      tbl;
    if not !depends then ok := false
  done;
  !ok && Array.exists Fun.id tbl && not (Array.for_all Fun.id tbl)

(* An NPN class key.  Up to 4 inputs it is the exact canonical form
   (smallest table over all 2^(n+1) n! transforms); above, an invariant
   signature: the ones count and, per input, the smaller of its two
   cofactor weights, minimized over both output phases.  Different
   signatures always mean different classes, so distinct keys certify
   that catalogue entries share no class. *)
let rec perms = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
        l

let class_key n tbl =
  let size = 1 lsl n in
  if n <= 4 then begin
    let best = ref max_int in
    List.iter
      (fun p ->
        let p = Array.of_list p in
        for neg = 0 to size - 1 do
          for out = 0 to 1 do
            let code = ref 0 in
            for m = 0 to size - 1 do
              let y = ref 0 in
              for i = 0 to n - 1 do
                if ((m lsr p.(i)) land 1) lxor ((neg lsr i) land 1) = 1 then
                  y := !y lor (1 lsl i)
              done;
              if tbl.(!y) <> (out = 1) then code := !code lor (1 lsl m)
            done;
            best := min !best !code
          done
        done)
      (perms (List.init n Fun.id));
    Printf.sprintf "%d:%d" n !best
  end
  else
    let phase value =
      let ones = Array.fold_left (fun a b -> if b = value then a + 1 else a) 0 tbl in
      let per =
        List.init n (fun v ->
            let c1 = ref 0 in
            Array.iteri
              (fun m b -> if b = value && (m lsr v) land 1 = 1 then incr c1)
              tbl;
            min !c1 (ones - !c1))
      in
      (ones, List.sort compare per)
    in
    let ones, per = min (phase true) (phase false) in
    Printf.sprintf "%d:%d:%s" n ones
      (String.concat "," (List.map string_of_int per))

type syntax = Juxt | Spaced | Star

let render syntax (f : sop) =
  let lit (v, pos) =
    match (syntax, pos) with
    | Star, false -> Printf.sprintf "~x%d" (v + 1)
    | _, false -> Printf.sprintf "x%d'" (v + 1)
    | _, true -> Printf.sprintf "x%d" (v + 1)
  in
  let sep = match syntax with Juxt -> "" | Spaced -> " " | Star -> "*" in
  String.concat " + "
    (List.map (fun cube -> String.concat sep (List.map lit cube)) f)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let shuffled rng l =
  let a = Array.of_list l in
  shuffle rng a;
  Array.to_list a

(* Batch jobs go out in fixed windows: the catalogue order (drawn from
   the catalogue seed) decides which jobs share a window and their order
   inside it; the run seed shuffles the windows.  A window's latency is
   set by how its jobs pack onto the two runner slots, so this keeps the
   latency quantiles a property of the workload rather than of one
   seed's shuffle. *)
let in_windows rng ~window items =
  let rec chunks = function
    | [] -> []
    | l ->
        let w = List.filteri (fun i _ -> i < window) l in
        w :: chunks (List.filteri (fun i _ -> i >= window) l)
  in
  let ws = Array.of_list (chunks items) in
  shuffle rng ws;
  Array.of_list (List.concat (Array.to_list ws))

(* a random NP transform of [f]: permute and negate inputs, reorder
   cubes and literals *)
let np_spell rng n (f : sop) : sop =
  let perm = Array.init n Fun.id in
  shuffle rng perm;
  let neg = Array.init n (fun _ -> Random.State.bool rng) in
  shuffled rng
    (List.map
       (fun cube ->
         shuffled rng (List.map (fun (v, pos) -> (perm.(v), pos <> neg.(v))) cube))
       f)

let random_syntax rng =
  match Random.State.int rng 3 with 0 -> Juxt | 1 -> Spaced | _ -> Star

(* random SOP over [n] inputs with full support: [cubes] cubes of
   [lo..hi] literals each *)
let rec random_sop rng n ~cubes ~lits:(lo, hi) : sop =
  let cube () =
    let vars = Array.init n Fun.id in
    shuffle rng vars;
    List.sort compare
      (List.init (lo + Random.State.int rng (hi - lo + 1)) (fun i ->
           (vars.(i), Random.State.bool rng)))
  in
  let f = List.init cubes (fun _ -> cube ()) in
  if full_support n (table n f) then f else random_sop rng n ~cubes ~lits:(lo, hi)

(* [count] random functions of [n] inputs, no two in one class and none
   in a class listed in [taken] (which is extended) *)
let distinct_classes rng taken n ~count ~cubes ~lits =
  let rec go acc k tries =
    if k = 0 then List.rev acc
    else if tries > 100_000 then
      failwith (Printf.sprintf "gen: cannot find %d classes of %d inputs" count n)
    else
      let f = random_sop rng n ~cubes ~lits in
      let key = class_key n (table n f) in
      if Hashtbl.mem taken key then go acc k (tries + 1)
      else begin
        Hashtbl.add taken key ();
        go (f :: acc) (k - 1) (tries + 1)
      end
  in
  go [] count 0

let popcount m =
  let rec go a m = if m = 0 then a else go (a + (m land 1)) (m lsr 1) in
  go 0 m

(* the symmetric function "ones-count of n inputs in [weights]", spelled
   as its minterms *)
let symmetric n weights : sop =
  List.filter_map
    (fun m ->
      if List.mem (popcount m) weights then
        Some (List.init n (fun v -> (v, (m lsr v) land 1 = 1)))
      else None)
    (List.init (1 lsl n) Fun.id)

let register taken n f =
  let key = class_key n (table n f) in
  if Hashtbl.mem taken key then
    failwith (Printf.sprintf "gen: catalogue entry repeats class %s" key);
  Hashtbl.add taken key ()

let synth_job ~id ?(extra = "") n syntax f =
  { line =
      Printf.sprintf {|{"id":"%s","kind":"synth","expr":"%s"%s}|} id (render syntax f)
        extra;
    expect = Synth { n; table = table n f } }

(* ------------------------------------------------------------------ *)
(* npn_hot                                                             *)
(* ------------------------------------------------------------------ *)

(* (inputs, classes, spellings per class, cubes, literals per cube) *)
let npn_tiers =
  [ (3, 6, 4, 3, (1, 3)); (4, 10, 4, 3, (2, 3)); (5, 10, 2, 4, (3, 3)); (6, 2, 2, 5, (4, 4)) ]

(* Target jobs per pass; the Zipf counts round to about this many.  At
   this size about 1.1 in 100 jobs sit in the four windows that key a
   6-input line, so p99 lands inside the fastest of those windows rather
   than on the edge between two of them, and fewer than a third of the
   windows key anything, so p50 is a memo-hit window. *)
let npn_stream_jobs = 2800

let npn_hot ~window seed =
  let crng = Random.State.make [| catalogue_seed; 1 |] in
  let rng = Random.State.make [| seed; 1 |] in
  let taken = Hashtbl.create 64 in
  (* the class catalogue and, per class, its spellings *)
  let classes =
    List.concat_map
      (fun (n, count, spellings, cubes, lits) ->
        List.map
          (fun f -> (n, spellings, f))
          (distinct_classes crng taken n ~count ~cubes ~lits))
      npn_tiers
  in
  let lines =
    List.concat
      (List.mapi
         (fun c (n, spellings, f) ->
           List.init spellings (fun s ->
               (* the syntax belongs to the slot, not the seed: it sets
                  the line's length, and so the cost of hashing it on the
                  memo-hit path *)
               let syntax = random_syntax crng in
               let g = if s = 0 then f else np_spell rng n f in
               (c, synth_job ~id:(Printf.sprintf "c%ds%d" c s) n syntax g)))
         classes)
  in
  (* Zipf ranks are a fixed property of each (class, spelling) slot, so
     every seed sends the same number of jobs to the same class *)
  let ranked = Array.of_list lines in
  shuffle crng ranked;
  let harmonic = ref 0.0 in
  Array.iteri (fun r _ -> harmonic := !harmonic +. (1.0 /. float_of_int (r + 1))) ranked;
  let scale = float_of_int npn_stream_jobs /. !harmonic in
  let stream =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun r _ ->
              List.init
                (max 1 (int_of_float (Float.round (scale /. float_of_int (r + 1)))))
                (fun _ -> r))
            ranked))
  in
  (* A 6-input line costs a second or more to key whenever its window
     cannot answer it from the memo, i.e. in the window where it is
     first seen (twice if it repeats there).  The order is redrawn until
     every window keys at most one 6-input line, so every seed pays each
     of them in full (head-of-line blocking included) instead of some
     seeds keying two in parallel.  The check works on slot numbers, so
     a redraw costs microseconds and the seed barely moves setup_s. *)
  let slots = Array.of_list stream in
  let heavy =
    Array.map (fun (_, j) -> match j.expect with Synth { n = 6; _ } -> true | _ -> false) ranked
  in
  let heavy_firsts_apart () =
    let answered = Array.make (Array.length ranked) false and ok = ref true in
    let n_jobs = Array.length slots in
    for w = 0 to (n_jobs - 1) / window do
      let lo = w * window and hi = min n_jobs ((w + 1) * window) in
      let keyed = ref 0 in
      for i = lo to hi - 1 do
        if heavy.(slots.(i)) && not answered.(slots.(i)) then incr keyed
      done;
      if !keyed > 1 then ok := false;
      for i = lo to hi - 1 do answered.(slots.(i)) <- true done
    done;
    !ok
  in
  let rec draw tries =
    if tries = 0 then failwith "gen: cannot spread the 6-input spellings";
    shuffle rng slots;
    if not (heavy_firsts_apart ()) then draw (tries - 1)
  in
  draw 1000;
  let jobs = Array.map (fun r -> snd ranked.(r)) slots in
  (* half of each arity tier starts cached, persisted through its first
     spelling *)
  let warm =
    List.concat_map
      (fun (n, count, _, _, _) ->
        let ids =
          List.filter_map
            (fun (c, (n', _, _)) -> if n' = n then Some c else None)
            (List.mapi (fun c x -> (c, x)) classes)
        in
        List.filteri (fun i _ -> i < count / 2) (shuffled rng ids))
      npn_tiers
    |> List.map (fun c ->
           (snd (List.find (fun (c', _) -> c' = c) lines)).line)
  in
  { why =
      "serve-style hot traffic: a Zipf-skewed stream over a few dozen NPN \
       classes of 3-6 inputs, each spelled several ways, with exact repeats, \
       starting from a persisted cache that covers half of the classes";
    stresses =
      "NPN keying (logic.npn), cache reads, the Stream response memo and \
       hit-path verify/render";
    spares = "the minimizer: almost every job is a memo or cache hit";
    mode = Stream;
    jobs;
    warm }

(* ------------------------------------------------------------------ *)
(* synth_cold                                                          *)
(* ------------------------------------------------------------------ *)

(* SAT-cover jobs always carry a step budget: without one, a SAT cover
   of sym7_34 ran for more than 14 minutes and reached 372 MB.  The
   service has no default budget for them yet. *)
let sat_budget_steps = 10_000

let synth_cold ~window seed =
  let crng = Random.State.make [| catalogue_seed; 2 |] in
  let rng = Random.State.make [| seed; 2 |] in
  let taken = Hashtbl.create 64 in
  let named =
    (* bnb's 200k-node cap returns non-minimal covers for these two with
       "degraded": false (sym7_34: 50 products where SAT finds 38;
       rd73_1: 48 vs 42); logic.qm.exact_ratio reports it *)
    [ (7, symmetric 7 [ 3; 4 ], ""); (* sym7_34 *)
      (7, symmetric 7 [ 2; 3; 6; 7 ], ""); (* rd73_1 *)
      (7, symmetric 7 [ 2; 5 ], "");
      (7, symmetric 7 [ 1; 2; 3 ], "");
      (8, symmetric 8 [ 4; 5 ], "");
      (8, symmetric 8 [ 2; 3; 4 ], "");
      (* the SAT cover engine, on rd73/sym7-style classes of their own *)
      ( 7,
        symmetric 7 [ 2; 3 ],
        Printf.sprintf {|,"cover_backend":"sat","budget_steps":%d|}
          sat_budget_steps );
      ( 7,
        symmetric 7 [ 1; 2; 5; 6 ],
        Printf.sprintf {|,"cover_backend":"sat","budget_steps":%d|}
          sat_budget_steps ) ]
  in
  List.iter (fun (n, f, _) -> register taken n f) named;
  let random =
    List.concat_map
      (fun (n, count, cubes, lits) ->
        List.map (fun f -> (n, f, ""))
          (distinct_classes crng taken n ~count ~cubes ~lits))
      [ (7, 13, 10, (4, 4)); (8, 13, 12, (5, 5)); (9, 11, 12, (6, 6)); (10, 11, 14, (7, 7)) ]
  in
  let jobs =
    in_windows rng ~window
      (List.map
         (fun (n, f, extra) -> (n, np_spell rng n f, extra))
         (shuffled crng (named @ random)))
  in
  let jobs =
    Array.mapi
      (fun i (n, f, extra) ->
        synth_job ~id:(Printf.sprintf "j%d" i) ~extra n (random_syntax rng) f)
      jobs
  in
  { why =
      "batch synthesis of distinct 7-10-input functions on a fresh cache: \
       no two jobs share an NPN class, so every job minimizes";
    stresses =
      "Minimize/Qm/Isop, the SAT cover engine and cache writes; keying is \
       semi-canonical above 6 inputs and costs almost nothing";
    spares = "cache reads and the response memo (there are no repeats)";
    mode = Batch;
    jobs;
    warm = [] }

(* ------------------------------------------------------------------ *)
(* fault_flow                                                          *)
(* ------------------------------------------------------------------ *)

let fault_flow ~window seed =
  let crng = Random.State.make [| catalogue_seed; 3 |] in
  let rng = Random.State.make [| seed; 3 |] in
  let taken = Hashtbl.create 64 in
  let fixed =
    [ (6, [ [ (0, true); (1, true); (2, true) ];
            [ (0, true); (1, true); (4, true); (5, true) ];
            [ (1, true); (2, true); (3, true); (4, true) ];
            [ (3, true); (4, true); (5, true) ] ]); (* the paper's Fig. 4 *)
      (3, [ [ (0, true); (1, true) ]; [ (1, true); (2, true) ];
            [ (0, true); (2, true) ] ]); (* maj3 *)
      (2, [ [ (0, true); (1, false) ]; [ (0, false); (1, true) ] ]) ]
  in
  List.iter (fun (n, f) -> register taken n f) fixed;
  let funcs =
    fixed
    @ List.concat_map
        (fun (n, count, cubes, lits) ->
          List.map (fun f -> (n, f)) (distinct_classes crng taken n ~count ~cubes ~lits))
        [ (4, 3, 3, (2, 2)); (5, 2, 3, (3, 3)); (6, 2, 3, (3, 3)) ]
  in
  let seed_of () = Random.State.int rng 1_000_000 in
  let flows =
    List.concat_map
      (fun (n, f) ->
        List.map
          (fun density ->
            let expr = render (random_syntax rng) (np_spell rng n f) in
            ( Printf.sprintf
                {|"kind":"flow","expr":"%s","n":24,"density":%.2f,"seed":%d|}
                expr density (seed_of ()),
              Flow ))
          [ 0.04; 0.08 ])
      funcs
  in
  let bism scheme count ~n ~k ~density ~extra =
    List.init count (fun _ ->
        ( Printf.sprintf
            {|"kind":"bism","n":%d,"k":%d,"density":%.2f,"seed":%d,"trials":20,"scheme":"%s"%s|}
            n k density (seed_of ()) scheme extra,
          Bism { trials = 20 } ))
  in
  let bists =
    List.map
      (fun (r, c) -> (Printf.sprintf {|"kind":"bist","rows":%d,"cols":%d|} r c, Bist))
      [ (8, 8); (10, 12); (12, 12); (12, 16); (16, 16); (6, 20) ]
  in
  let repairs =
    List.concat_map
      (fun mode ->
        List.init 5 (fun _ ->
            ( Printf.sprintf
                {|"kind":"repair","rows":12,"cols":12,"spare_rows":2,"spare_cols":2,"density":0.05,"seed":%d,"trials":20,"mode":"%s"|}
                (seed_of ()) mode,
              Repair { trials = 20 } )))
      [ "exact"; "greedy" ]
  in
  let yields =
    List.init 6 (fun _ ->
        ( Printf.sprintf {|"kind":"yield","n":24,"density":0.05,"seed":%d,"trials":20|}
            (seed_of ()),
          Yield { n = 24 } ))
  in
  let specs =
    shuffled crng
      (flows
      @ bism "blind" 6 ~n:32 ~k:12 ~density:0.05 ~extra:""
      @ bism "greedy" 6 ~n:28 ~k:12 ~density:0.07 ~extra:""
      @ bism "hybrid" 6 ~n:28 ~k:12 ~density:0.07 ~extra:""
      (* SAT jobs carry a step budget, like synth_cold's *)
      @ bism "sat" 4 ~n:32 ~k:12 ~density:0.05
          ~extra:(Printf.sprintf {|,"budget_steps":%d|} 200_000)
      @ bists @ repairs @ yields)
  in
  let jobs =
    Array.mapi
      (fun i (body, expect) ->
        { line = Printf.sprintf {|{"id":"j%d",%s}|} i body; expect })
      (in_windows rng ~window specs)
  in
  { why =
      "batch WP2 traffic on a fresh cache: flows of <=6-input functions on \
       defective chips, BISM under every scheme, BIST, spare repair and \
       yield, each job with its own seed";
    stresses =
      "reliability (defect maps, BISM, Sat_assign, BIST, BIRA, yield), core \
       synthesis/flow, the lattice kernels and the pool";
    spares = "NPN keying, the minimizer on big functions and the service cache";
    mode = Batch;
    jobs;
    warm = [] }

let mode_of = function "npn_hot" -> Stream | _ -> Batch

(* [window] is the number of jobs the client keeps outstanding *)
let make ~window name seed =
  match name with
  | "npn_hot" -> npn_hot ~window seed
  | "synth_cold" -> synth_cold ~window seed
  | "fault_flow" -> fault_flow ~window seed
  | other -> invalid_arg ("unknown workload " ^ other)
