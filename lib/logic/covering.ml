module Guard = Nxc_guard

let word = Bitslice.word_bits

(* ------------------------------------------------------------------ *)
(* bitsets over native-int words                                       *)
(* ------------------------------------------------------------------ *)

let mem s i = s.(i / word) land (1 lsl (i mod word)) <> 0
let remove s i = s.(i / word) <- s.(i / word) land lnot (1 lsl (i mod word))

let full len =
  let s = Array.make (Bitslice.words_for len) (-1) in
  if len > 0 then
    s.(Array.length s - 1) <- Bitslice.tail_mask len;
  s

let is_empty s = Array.for_all (( = ) 0) s
let zeros_like s = Array.make (Array.length s) 0

let iter s f =
  Array.iteri (fun w x -> Bitslice.iter_set x (fun b -> f ((w * word) + b))) s

let elements s =
  let acc = ref [] in
  iter s (fun i -> acc := i :: !acc);
  List.rev !acc

(* |a ∩ b| *)
let count_inter a b =
  let k = ref 0 in
  for w = 0 to Array.length a - 1 do
    k := !k + Bitslice.popcount (a.(w) land b.(w))
  done;
  !k

(* a ∩ mask ⊆ b *)
let subset_within ~mask a b =
  let rec go w =
    w < 0 || (a.(w) land mask.(w) land lnot b.(w) = 0 && go (w - 1))
  in
  go (Array.length a - 1)

let disjoint a b =
  let rec go w = w < 0 || (a.(w) land b.(w) = 0 && go (w - 1)) in
  go (Array.length a - 1)

(* s <- s ∪ t *)
let union_into s t =
  for w = 0 to Array.length s - 1 do
    s.(w) <- s.(w) lor t.(w)
  done

(* s <- s \ t *)
let diff_into s t =
  for w = 0 to Array.length s - 1 do
    s.(w) <- s.(w) land lnot t.(w)
  done

(* ------------------------------------------------------------------ *)
(* the covering matrix                                                 *)
(* ------------------------------------------------------------------ *)

(* row [r] (an element) lists the columns (sets) covering it; column
   [c] lists the rows it covers *)
type matrix = { cols_of_row : int array array; rows_of_col : int array array }

let matrix ~num_sets covered_by =
  let nr = Array.length covered_by in
  let cols_of_row =
    Array.map
      (fun who ->
        if who = [] then invalid_arg "Covering: an element has no covering set";
        let s = Array.make (Bitslice.words_for num_sets) 0 in
        List.iter
          (fun c ->
            if c < 0 || c >= num_sets then invalid_arg "Covering: set out of range";
            s.(c / word) <- s.(c / word) lor (1 lsl (c mod word)))
          who;
        s)
      covered_by
  in
  let rows_of_col =
    Array.init num_sets (fun _ -> Array.make (Bitslice.words_for nr) 0)
  in
  Array.iteri
    (fun r s ->
      iter s (fun c ->
          let t = rows_of_col.(c) in
          t.(r / word) <- t.(r / word) lor (1 lsl (r mod word))))
    cols_of_row;
  { cols_of_row; rows_of_col }

(* Largest gain first, the lowest index among equal gains. *)
let greedy m =
  let uncovered = full (Array.length m.cols_of_row) in
  let chosen = ref [] in
  while not (is_empty uncovered) do
    let best = ref (-1) and best_gain = ref (-1) in
    Array.iteri
      (fun c rows ->
        let gain = count_inter rows uncovered in
        if gain > !best_gain then begin
          best_gain := gain;
          best := c
        end)
      m.rows_of_col;
    chosen := !best :: !chosen;
    diff_into uncovered m.rows_of_col.(!best)
  done;
  !chosen

(* ------------------------------------------------------------------ *)
(* the cyclic-core solver                                              *)
(* ------------------------------------------------------------------ *)

type outcome = { chosen : int list; exact : bool; nodes : int }

exception Out_of_work

(* A subproblem: the rows still to cover, the columns still allowed,
   the columns chosen so far, and the rows and columns whose sets shrank
   since the last fixpoint.  Only those can have become essential or
   started a new dominance, so [reduce] examines only them: a node
   costs what changed in it, not the square of its size.  [reduce] owns
   its copies of the sets. *)
type node = {
  rows : int array;
  cols : int array;
  chosen : int list;
  size : int;
  dirty_rows : int array;
  dirty_cols : int array;
}

exception Stop

(* Essential columns, row dominance and column dominance, repeated to a
   fixpoint.  [None] when some row has no column left.  [charge k]
   pays for [k] bitset visits (one row or column, a few words). *)
let reduce charge m nd =
  let rows = Array.copy nd.rows and cols = Array.copy nd.cols in
  let dirty_rows = Array.copy nd.dirty_rows
  and dirty_cols = Array.copy nd.dirty_cols in
  let chosen = ref nd.chosen and size = ref nd.size in
  let drop_row r =
    remove rows r;
    union_into dirty_cols m.cols_of_row.(r)
  and drop_col c =
    remove cols c;
    union_into dirty_rows m.rows_of_col.(c)
  in
  (* [scan active f] runs [f] on every member of [active], charging
     for the visits; [f] raises [Stop] to end the scan early *)
  let scan active f =
    let visited = ref 0 in
    (try iter active (fun i -> incr visited; f i) with Stop -> ());
    charge !visited
  in
  let feasible = ref true in
  let take dirty active =
    let d = Array.map2 ( land ) dirty active in
    Array.fill dirty 0 (Array.length dirty) 0;
    d
  in
  while !feasible && not (disjoint dirty_rows rows && disjoint dirty_cols cols)
  do
    let dr = take dirty_rows rows in
    (* a row left with a single column forces that column *)
    scan dr (fun r ->
        if mem rows r then begin
          let cr = m.cols_of_row.(r) in
          match count_inter cr cols with
          | 0 ->
              feasible := false;
              raise Stop
          | 1 ->
              iter cols (fun c -> if mem cr c then begin
                  chosen := c :: !chosen;
                  incr size;
                  drop_col c;
                  iter (Array.map2 ( land ) m.rows_of_col.(c) rows) drop_row
                end)
          | _ -> ()
        end);
    if !feasible then begin
      (* a row whose columns include another row's is covered whenever
         that row is; of two equal rows the higher index goes *)
      scan dr (fun a ->
          if mem rows a then
            let ca = m.cols_of_row.(a) in
            scan rows (fun b ->
                if b <> a then
                  let cb = m.cols_of_row.(b) in
                  if subset_within ~mask:cols ca cb then
                    if b < a && subset_within ~mask:cols cb ca then begin
                      drop_row a;
                      raise Stop
                    end
                    else drop_row b));
      (* a column whose rows lie inside another column's can give way
         to it; of two equal columns the higher index goes *)
      scan (take dirty_cols cols) (fun a ->
          if mem cols a then
            let ra = m.rows_of_col.(a) in
            scan cols (fun b ->
                if b <> a then
                  let rb = m.rows_of_col.(b) in
                  if subset_within ~mask:rows ra rb then
                    if a < b && subset_within ~mask:rows rb ra then drop_col b
                    else begin
                      drop_col a;
                      raise Stop
                    end))
    end
  done;
  if !feasible then
    Some { nd with rows; cols; chosen = !chosen; size = !size }
  else None

(* A lower bound on the columns still needed: a greedy set of rows that
   pairwise share no column (each needs its own), and the row count
   over the most rows one column covers. *)
let lower_bound charge m nd =
  let rows = Array.of_list (elements nd.rows) in
  let width = Array.map (fun r -> count_inter m.cols_of_row.(r) nd.cols) rows in
  charge (Array.length rows);
  let order = Array.init (Array.length rows) Fun.id in
  Array.stable_sort (fun a b -> compare width.(a) width.(b)) order;
  let used = Array.make (Array.length nd.cols) 0 in
  let independent = ref 0 in
  Array.iter
    (fun i ->
      let cr = m.cols_of_row.(rows.(i)) in
      if disjoint cr used then begin
        incr independent;
        union_into used (Array.map2 ( land ) cr nd.cols)
      end)
    order;
  let widest = ref 1 and visited = ref 0 in
  iter nd.cols (fun c ->
      incr visited;
      widest := max !widest (count_inter m.rows_of_col.(c) nd.rows));
  charge !visited;
  max !independent ((Array.length rows + !widest - 1) / !widest)

let solve ?(budget = 1_000_000) ~guard ~num_sets ~covered_by () =
  let m = matrix ~num_sets covered_by in
  let best = ref (greedy m) in
  let best_size = ref (List.length !best) in
  let work = ref 0 and nodes = ref 0 in
  let charge k =
    work := !work + k;
    if !work > budget || not (Guard.Budget.charge guard k) then
      raise Out_of_work
  in
  (* [floor] is the best bound of any ancestor: no cover in this
     subtree is smaller, so the search stops as soon as it meets one *)
  let rec search floor nd =
    incr nodes;
    charge 1;
    match reduce charge m nd with
    | None -> ()
    | Some nd ->
        if is_empty nd.rows then begin
          if nd.size < !best_size then begin
            best := nd.chosen;
            best_size := nd.size
          end
        end
        else
          let floor = max floor (nd.size + lower_bound charge m nd) in
          if floor < !best_size then begin
            (* branch on the row with the fewest columns, widest column
               first; each later branch excludes the columns tried
               before *)
            let row = ref (-1) and fewest = ref max_int and visited = ref 0 in
            iter nd.rows (fun r ->
                incr visited;
                let k = count_inter m.cols_of_row.(r) nd.cols in
                if k < !fewest then begin
                  fewest := k;
                  row := r
                end);
            charge !visited;
            let cands =
              List.filter (mem m.cols_of_row.(!row)) (elements nd.cols)
              |> List.map (fun c -> (-count_inter m.rows_of_col.(c) nd.rows, c))
              |> List.sort compare
            in
            let cols = Array.copy nd.cols and excluded = zeros_like nd.rows in
            List.iter
              (fun (_, c) ->
                remove cols c;
                union_into excluded m.rows_of_col.(c);
                if floor < !best_size then begin
                  let covered = Array.map2 ( land ) m.rows_of_col.(c) nd.rows in
                  let rows = Array.copy nd.rows in
                  diff_into rows covered;
                  let dirty_cols = zeros_like nd.cols in
                  iter covered (fun r -> union_into dirty_cols m.cols_of_row.(r));
                  search floor
                    { rows;
                      cols;
                      chosen = c :: nd.chosen;
                      size = nd.size + 1;
                      dirty_rows = excluded;
                      dirty_cols }
                end)
              cands
          end
  in
  let root =
    let rows = full (Array.length covered_by) and cols = full num_sets in
    { rows; cols; chosen = []; size = 0; dirty_rows = rows; dirty_cols = cols }
  in
  let exact =
    match search 0 root with () -> true | exception Out_of_work -> false
  in
  { chosen = !best; exact; nodes = !nodes }
