module Obs = Nxc_obs
module Guard = Nxc_guard

let m_solves = Obs.Metrics.counter "sat.solve_calls"
let m_conflicts = Obs.Metrics.counter "sat.conflicts"
let m_props = Obs.Metrics.counter "sat.propagations"
let m_decisions = Obs.Metrics.counter "sat.decisions"
let m_learned = Obs.Metrics.counter "sat.learned_clauses"
let m_restarts = Obs.Metrics.counter "sat.restarts"
let m_unknown = Obs.Metrics.counter "sat.budget_exhausted"

(* learnt-database size sampled at every restart: provenance data for a
   future clause-deletion policy (no deletion happens yet, so the gauge
   is monotone within one solve and the last restart's sample wins) *)
let g_learnt_db = Obs.Metrics.gauge "sat.learnt_db_size"
let h_solve_us = Obs.Metrics.hdr "sat.latency.solve"

(* Internal literal encoding: variable [v] (1-based externally) is the
   0-based [v - 1]; literal [2 * (v - 1)] is positive, [lxor 1]
   negates.  External literals are DIMACS integers. *)

let ilit ext =
  if ext > 0 then (ext - 1) * 2
  else if ext < 0 then (((-ext) - 1) * 2) lor 1
  else invalid_arg "Solver: 0 is not a literal"

type result = Sat | Unsat | Unknown

type clause = { lits : int array; learnt : bool }

(* minimal growable array for watch lists *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable sz : int }

  let create () = { data = [||]; sz = 0 }

  let push v x =
    if v.sz = Array.length v.data then begin
      let cap = max 4 (2 * v.sz) in
      let d = Array.make cap x in
      Array.blit v.data 0 d 0 v.sz;
      v.data <- d
    end;
    v.data.(v.sz) <- x;
    v.sz <- v.sz + 1

  let size v = v.sz
  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let shrink v n = v.sz <- n
end

type t = {
  mutable nvars : int;
  mutable ok : bool;
  seed : int;
  (* per-variable state, arrays of capacity [cap >= nvars] *)
  mutable assign : int array;  (* 0 unknown, 1 true, -1 false *)
  mutable var_level : int array;
  mutable reason : clause option array;
  mutable phase : bool array;  (* saved polarity *)
  mutable activity : float array;
  mutable seen : bool array;
  mutable heap_pos : int array;  (* -1 when not in heap *)
  mutable heap : int array;
  mutable heap_sz : int;
  mutable watches : clause Vec.t array;  (* indexed by internal literal *)
  mutable trail : int array;
  mutable trail_sz : int;
  mutable trail_lim : int array;
  mutable trail_lim_sz : int;
  mutable qhead : int;
  mutable model : int array;
  mutable var_inc : float;
  mutable guard : Guard.Budget.t;
  mutable n_learnt : int;
  mutable s_conflicts : int;
  mutable s_props : int;
  mutable s_decisions : int;
  mutable s_restarts : int;
}

exception Exhausted

let create ?(seed = 0) () =
  { nvars = 0;
    ok = true;
    seed;
    assign = [||];
    var_level = [||];
    reason = [||];
    phase = [||];
    activity = [||];
    seen = [||];
    heap_pos = [||];
    heap = [||];
    heap_sz = 0;
    watches = [||];
    trail = [||];
    trail_sz = 0;
    trail_lim = [||];
    trail_lim_sz = 0;
    qhead = 0;
    model = [||];
    var_inc = 1.0;
    guard = Guard.Budget.unlimited;
    n_learnt = 0;
    s_conflicts = 0;
    s_props = 0;
    s_decisions = 0;
    s_restarts = 0 }

let ok s = s.ok
let decision_level s = s.trail_lim_sz

let lit_value s l =
  let a = s.assign.(l lsr 1) in
  if l land 1 = 0 then a else -a

(* deterministic per-seed phase initialisation (splitmix-style hash) *)
let initial_phase seed v =
  let z = (seed * 0x9E3779B9) + (v * 0x85EBCA6B) in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 in
  (z lxor (z lsr 16)) land 1 = 1

(* ------------------------------------------------------------------ *)
(* activity order: indexed binary max-heap                             *)
(* ------------------------------------------------------------------ *)

let heap_lt s a b =
  s.activity.(a) > s.activity.(b)
  || (s.activity.(a) = s.activity.(b) && a < b)

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt s s.heap.(i) s.heap.(p) then begin
      let x = s.heap.(i) and y = s.heap.(p) in
      s.heap.(i) <- y;
      s.heap.(p) <- x;
      s.heap_pos.(y) <- i;
      s.heap_pos.(x) <- p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_sz && heap_lt s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_sz && heap_lt s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    let x = s.heap.(i) and y = s.heap.(!best) in
    s.heap.(i) <- y;
    s.heap.(!best) <- x;
    s.heap_pos.(y) <- i;
    s.heap_pos.(x) <- !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_sz) <- v;
    s.heap_pos.(v) <- s.heap_sz;
    s.heap_sz <- s.heap_sz + 1;
    heap_up s (s.heap_sz - 1)
  end

let heap_pop s =
  let top = s.heap.(0) in
  s.heap_sz <- s.heap_sz - 1;
  s.heap_pos.(top) <- -1;
  if s.heap_sz > 0 then begin
    let last = s.heap.(s.heap_sz) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    heap_down s 0
  end;
  top

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    (* uniform rescale preserves the heap order *)
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let decay s = s.var_inc <- s.var_inc /. 0.95

(* ------------------------------------------------------------------ *)
(* variables and clauses                                               *)
(* ------------------------------------------------------------------ *)

let grow_int a cap x = Array.append a (Array.make (cap - Array.length a) x)

let ensure_cap s n =
  if n > Array.length s.assign then begin
    let cap = max 16 (max n (2 * Array.length s.assign)) in
    s.assign <- grow_int s.assign cap 0;
    s.var_level <- grow_int s.var_level cap 0;
    s.reason <- Array.append s.reason (Array.make (cap - Array.length s.reason) None);
    s.phase <- Array.append s.phase (Array.make (cap - Array.length s.phase) false);
    s.activity <- Array.append s.activity (Array.make (cap - Array.length s.activity) 0.0);
    s.seen <- Array.append s.seen (Array.make (cap - Array.length s.seen) false);
    s.heap_pos <- grow_int s.heap_pos cap (-1);
    s.heap <- grow_int s.heap cap 0;
    s.trail <- grow_int s.trail cap 0;
    s.trail_lim <- grow_int s.trail_lim cap 0;
    s.model <- grow_int s.model cap 0;
    let w = Array.init (2 * cap) (fun i ->
        if i < Array.length s.watches then s.watches.(i) else Vec.create ())
    in
    s.watches <- w
  end

let new_var s =
  let v = s.nvars in
  ensure_cap s (v + 1);
  s.nvars <- v + 1;
  s.phase.(v) <- initial_phase s.seed v;
  heap_insert s v;
  v + 1

let enqueue s l reason =
  let v = l lsr 1 in
  s.assign.(v) <- (if l land 1 = 0 then 1 else -1);
  s.var_level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_sz) <- l;
  s.trail_sz <- s.trail_sz + 1

let attach s c =
  Vec.push s.watches.(c.lits.(0)) c;
  Vec.push s.watches.(c.lits.(1)) c

(* two-watched-literal unit propagation; returns the conflicting clause
   if any.  The budget is charged once per 64 propagated literals, and
   only between watch-list walks so an [Exhausted] raise never leaves a
   watch list half-rebuilt. *)
let propagate s =
  let confl = ref None in
  while !confl = None && s.qhead < s.trail_sz do
    s.s_props <- s.s_props + 1;
    if s.s_props land 63 = 0 && not (Guard.Budget.step s.guard) then
      raise Exhausted;
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let fl = p lxor 1 in
    let ws = s.watches.(fl) in
    let n = Vec.size ws in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      let lits = c.lits in
      if lits.(0) = fl then begin
        lits.(0) <- lits.(1);
        lits.(1) <- fl
      end;
      let first = lits.(0) in
      if lit_value s first = 1 then begin
        (* already satisfied: keep the watch *)
        Vec.set ws !j c;
        incr j
      end
      else begin
        (* find a replacement watch among the tail literals *)
        let len = Array.length lits in
        let k = ref 2 in
        while !k < len && lit_value s lits.(!k) = -1 do incr k done;
        if !k < len then begin
          lits.(1) <- lits.(!k);
          lits.(!k) <- fl;
          Vec.push s.watches.(lits.(1)) c
        end
        else begin
          (* unit or conflicting *)
          Vec.set ws !j c;
          incr j;
          if lit_value s first = -1 then begin
            while !i < n do
              Vec.set ws !j (Vec.get ws !i);
              incr j;
              incr i
            done;
            s.qhead <- s.trail_sz;
            confl := Some c
          end
          else enqueue s first (Some c)
        end
      end
    done;
    Vec.shrink ws !j
  done;
  !confl

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_sz - 1 downto bound do
      let l = s.trail.(i) in
      let v = l lsr 1 in
      s.phase.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- 0;
      s.reason.(v) <- None;
      heap_insert s v
    done;
    s.trail_sz <- bound;
    s.qhead <- bound;
    s.trail_lim_sz <- lvl
  end

let new_decision_level s =
  (* dummy assumption levels can outnumber variables, so [trail_lim]
     grows on demand unlike the other per-variable arrays *)
  if s.trail_lim_sz = Array.length s.trail_lim then
    s.trail_lim <- grow_int s.trail_lim (max 16 (2 * s.trail_lim_sz)) 0;
  s.trail_lim.(s.trail_lim_sz) <- s.trail_sz;
  s.trail_lim_sz <- s.trail_lim_sz + 1

let add_clause s ext_lits =
  List.iter
    (fun e ->
      let v = abs e in
      if v < 1 || v > s.nvars then
        invalid_arg
          (Printf.sprintf "Solver.add_clause: literal %d out of range" e))
    ext_lits;
  if s.ok then begin
    assert (decision_level s = 0);
    let lits = List.sort_uniq compare (List.map ilit ext_lits) in
    let taut =
      let rec go = function
        | a :: (b :: _ as rest) -> a lxor 1 = b || go rest
        | _ -> false
      in
      go lits
    in
    if not taut then begin
      (* strip literals already false at level 0; drop if any is true *)
      let sat0 = List.exists (fun l -> lit_value s l = 1) lits in
      if not sat0 then begin
        let lits = List.filter (fun l -> lit_value s l <> -1) lits in
        match lits with
        | [] -> s.ok <- false
        | [ l ] -> (
            enqueue s l None;
            match propagate s with
            | Some _ -> s.ok <- false
            | None -> ())
        | _ ->
            let c = { lits = Array.of_list lits; learnt = false } in
            attach s c
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* conflict analysis: first UIP                                        *)
(* ------------------------------------------------------------------ *)

(* Resolve backwards over the implication graph from [confl0] until a
   single literal of the current decision level remains (the first
   unique implication point).  Returns the learnt clause with the
   asserting literal at index 0 and the backjump level. *)
let analyze s confl0 =
  let learnt = ref [] in
  let to_clear = ref [] in
  let pathc = ref 0 in
  let btlevel = ref 0 in
  let p = ref (-1) in
  let confl = ref (Some confl0) in
  let index = ref s.trail_sz in
  let continue_ = ref true in
  while !continue_ do
    let c = match !confl with Some c -> c | None -> assert false in
    let start = if !p = -1 then 0 else 1 in
    for jj = start to Array.length c.lits - 1 do
      let q = c.lits.(jj) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.var_level.(v) > 0 then begin
        s.seen.(v) <- true;
        to_clear := v :: !to_clear;
        bump s v;
        if s.var_level.(v) >= decision_level s then incr pathc
        else begin
          learnt := q :: !learnt;
          if s.var_level.(v) > !btlevel then btlevel := s.var_level.(v)
        end
      end
    done;
    while not s.seen.(s.trail.(!index - 1) lsr 1) do decr index done;
    decr index;
    p := s.trail.(!index);
    let v = !p lsr 1 in
    confl := s.reason.(v);
    s.seen.(v) <- false;
    decr pathc;
    if !pathc = 0 then continue_ := false
  done;
  List.iter (fun v -> s.seen.(v) <- false) !to_clear;
  let arr = Array.of_list ((!p lxor 1) :: !learnt) in
  (arr, !btlevel)

let record_learnt s arr btlevel =
  cancel_until s btlevel;
  if Array.length arr = 1 then enqueue s arr.(0) None
  else begin
    (* watch the asserting literal and one literal of the backjump
       level, so the clause wakes up exactly when it must *)
    let best = ref 1 in
    for k = 2 to Array.length arr - 1 do
      if s.var_level.(arr.(k) lsr 1) > s.var_level.(arr.(!best) lsr 1) then
        best := k
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    let c = { lits = arr; learnt = true } in
    attach s c;
    s.n_learnt <- s.n_learnt + 1;
    enqueue s arr.(0) (Some c)
  end

(* ------------------------------------------------------------------ *)
(* search                                                              *)
(* ------------------------------------------------------------------ *)

(* i-th term (0-based) of the Luby sequence 1 1 2 1 1 2 4 1 1 2 ... *)
let luby i =
  let rec find size seq =
    if size > i then (size, seq) else find ((2 * size) + 1) (seq + 1)
  in
  let rec loop i size seq =
    if size - 1 = i then 1 lsl seq
    else loop (i mod ((size - 1) / 2)) ((size - 1) / 2) (seq - 1)
  in
  let size, seq = find 1 0 in
  loop i size seq

let restart_base = 64

let search s assumptions =
  let n_assumps = Array.length assumptions in
  let conflict_c = ref 0 in
  let round = ref 0 in
  let limit = ref (restart_base * luby 0) in
  let result = ref None in
  while !result = None do
    match propagate s with
    | Some confl ->
        s.s_conflicts <- s.s_conflicts + 1;
        incr conflict_c;
        if not (Guard.Budget.step s.guard) then raise Exhausted;
        if decision_level s = 0 then begin
          s.ok <- false;
          result := Some Unsat
        end
        else begin
          let arr, btlevel = analyze s confl in
          record_learnt s arr btlevel;
          decay s
        end
    | None ->
        if !conflict_c >= !limit then begin
          (* Luby restart: back to level 0, assumptions re-placed below *)
          s.s_restarts <- s.s_restarts + 1;
          Obs.Metrics.set g_learnt_db (float_of_int s.n_learnt);
          incr round;
          conflict_c := 0;
          limit := restart_base * luby !round;
          cancel_until s 0
        end
        else if decision_level s < n_assumps then begin
          let p = assumptions.(decision_level s) in
          match lit_value s p with
          | 1 -> new_decision_level s (* dummy level: already true *)
          | -1 -> result := Some Unsat
          | _ ->
              new_decision_level s;
              enqueue s p None
        end
        else begin
          (* pick an unassigned variable of maximal activity *)
          let v = ref (-1) in
          while !v = -1 && s.heap_sz > 0 do
            let cand = heap_pop s in
            if s.assign.(cand) = 0 then v := cand
          done;
          if !v = -1 then begin
            Array.blit s.assign 0 s.model 0 s.nvars;
            result := Some Sat
          end
          else begin
            s.s_decisions <- s.s_decisions + 1;
            new_decision_level s;
            let l = (2 * !v) lor if s.phase.(!v) then 0 else 1 in
            enqueue s l None
          end
        end
  done;
  Option.get !result

let solve ?guard ?(assumptions = []) s =
  let guard = Guard.Budget.resolve guard in
  Obs.Metrics.incr m_solves;
  let t0 = Obs.Clock.now_ns () in
  let c0 = s.s_conflicts
  and p0 = s.s_props
  and d0 = s.s_decisions
  and r0 = s.s_restarts
  and l0 = s.n_learnt in
  let finish res =
    cancel_until s 0;
    s.guard <- Guard.Budget.unlimited;
    Obs.Metrics.add m_conflicts (s.s_conflicts - c0);
    Obs.Metrics.add m_props (s.s_props - p0);
    Obs.Metrics.add m_decisions (s.s_decisions - d0);
    Obs.Metrics.add m_restarts (s.s_restarts - r0);
    Obs.Metrics.add m_learned (s.n_learnt - l0);
    Obs.Metrics.hdr_observe h_solve_us ((Obs.Clock.now_ns () - t0) / 1000);
    res
  in
  let assumps = Array.of_list (List.map ilit assumptions) in
  Array.iter
    (fun l ->
      if l lsr 1 >= s.nvars then
        invalid_arg "Solver.solve: assumption literal out of range")
    assumps;
  if not s.ok then finish Unsat
  else if not (Guard.Budget.step guard) then begin
    (* one step at entry: an already-dead budget answers Unknown even
       for instances small enough to solve without a single conflict *)
    Obs.Metrics.incr m_unknown;
    finish Unknown
  end
  else begin
    s.guard <- guard;
    match search s assumps with
    | res -> finish res
    | exception Exhausted ->
        Obs.Metrics.incr m_unknown;
        finish Unknown
  end

let value s v =
  if v < 1 || v > s.nvars then invalid_arg "Solver.value: variable out of range";
  s.model.(v - 1) = 1

type stats = {
  conflicts : int;
  propagations : int;
  decisions : int;
  restarts : int;
  learned : int;
}

let stats s =
  { conflicts = s.s_conflicts;
    propagations = s.s_props;
    decisions = s.s_decisions;
    restarts = s.s_restarts;
    learned = s.n_learnt }
