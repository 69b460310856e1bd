module Cube = Nxc_logic.Cube
module Boolfunc = Nxc_logic.Boolfunc
module Truth_table = Nxc_logic.Truth_table
module Bitvec = Nxc_logic.Bitvec
module Bitslice = Nxc_logic.Bitslice
module Obs = Nxc_obs

type site = Zero | One | Lit of int * Cube.polarity

type t = { n : int; rows : int; cols : int; sites : site array array }

let make ~n_vars sites =
  let rows = Array.length sites in
  if rows = 0 then invalid_arg "Lattice.make: no rows";
  let cols = Array.length sites.(0) in
  if cols = 0 then invalid_arg "Lattice.make: empty rows";
  Array.iter
    (fun row ->
      if Array.length row <> cols then
        invalid_arg "Lattice.make: ragged rows")
    sites;
  Array.iter
    (Array.iter (function
      | Lit (v, _) when v < 0 || v >= n_vars ->
          invalid_arg "Lattice.make: literal out of range"
      | Zero | One | Lit _ -> ()))
    sites;
  { n = n_vars; rows; cols; sites = Array.map Array.copy sites }

let n_vars l = l.n
let rows l = l.rows
let cols l = l.cols
let area l = l.rows * l.cols

let site l r c =
  if r < 0 || r >= l.rows || c < 0 || c >= l.cols then
    invalid_arg "Lattice.site: out of range";
  l.sites.(r).(c)

let sites l = Array.map Array.copy l.sites

let map f l =
  { l with sites = Array.mapi (fun r row -> Array.mapi (fun c s -> f r c s) row) l.sites }

let site_conducts s m =
  match s with
  | Zero -> false
  | One -> true
  | Lit (v, Cube.Pos) -> m land (1 lsl v) <> 0
  | Lit (v, Cube.Neg) -> m land (1 lsl v) = 0

(* Connectivity by BFS over conducting sites.  [starts] seeds the
   frontier; [finished] decides success. *)
let connected l m ~starts ~finished =
  let on = Array.make (l.rows * l.cols) false in
  for r = 0 to l.rows - 1 do
    for c = 0 to l.cols - 1 do
      on.((r * l.cols) + c) <- site_conducts l.sites.(r).(c) m
    done
  done;
  let visited = Array.make (l.rows * l.cols) false in
  let queue = Queue.create () in
  List.iter
    (fun (r, c) ->
      let i = (r * l.cols) + c in
      if on.(i) && not visited.(i) then begin
        visited.(i) <- true;
        Queue.add (r, c) queue
      end)
    starts;
  let result = ref false in
  while (not !result) && not (Queue.is_empty queue) do
    let r, c = Queue.pop queue in
    if finished (r, c) then result := true
    else
      List.iter
        (fun (r', c') ->
          if r' >= 0 && r' < l.rows && c' >= 0 && c' < l.cols then begin
            let i = (r' * l.cols) + c' in
            if on.(i) && not visited.(i) then begin
              visited.(i) <- true;
              Queue.add (r', c') queue
            end
          end)
        [ (r - 1, c); (r + 1, c); (r, c - 1); (r, c + 1) ]
  done;
  !result

let eval_int l m =
  connected l m
    ~starts:(List.init l.cols (fun c -> (0, c)))
    ~finished:(fun (r, _) -> r = l.rows - 1)

let eval l x =
  let m = ref 0 in
  Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) x;
  eval_int l !m

let eval_lr l m =
  connected l m
    ~starts:(List.init l.rows (fun r -> (r, 0)))
    ~finished:(fun (_, c) -> c = l.cols - 1)

let transpose l =
  { l with
    rows = l.cols;
    cols = l.rows;
    sites = Array.init l.cols (fun c -> Array.init l.rows (fun r -> l.sites.(r).(c))) }

(* ------------------------------------------------------------------ *)
(* Bit-sliced evaluation kernel.                                       *)
(*                                                                     *)
(* One bit per input assignment: site (r,c) carries a 2^n-bit          *)
(* conduction vector whose bit m says whether the site conducts under  *)
(* assignment m.  Since assignments never interact, each word column   *)
(* of the slab is an independent connectivity problem, so the kernel   *)
(* processes one word (word_bits assignments) at a time over a plain   *)
(* rows*cols int grid: seed the top row, then relax                    *)
(*   reach[s] |= cond[s] land (OR of the 4 neighbours' reach)          *)
(* with alternating forward/backward Gauss-Seidel sweeps until a full  *)
(* sweep changes nothing.  The OR of the bottom row is the function's  *)
(* truth-table word for that block of assignments.                     *)
(* ------------------------------------------------------------------ *)

let m_kernel_calls = Obs.Metrics.counter "bitslice.kernel_calls"
let m_word_ops = Obs.Metrics.counter "bitslice.word_ops"

type scratch = {
  mutable pats : int array array;
      (* pats.(v) = variable pattern of v over [pats_len] assignment bits *)
  mutable pats_len : int;
  mutable cond : int array; (* rows*cols conduction words, current block *)
  mutable reach : int array; (* rows*cols reachability words *)
  mutable out : int array; (* words_for len output words *)
}

let scratch () =
  { pats = [||]; pats_len = -1; cond = [||]; reach = [||]; out = [||] }

let ensure_pats s ~n_vars ~len =
  if s.pats_len <> len || Array.length s.pats < n_vars then begin
    let nw = Bitslice.words_for len in
    let reusable = if s.pats_len = len then Array.length s.pats else 0 in
    s.pats <-
      Array.init (max n_vars reusable) (fun v ->
          if v < reusable then s.pats.(v)
          else begin
            let p = Array.make nw 0 in
            Bitslice.fill_var p ~len ~v;
            p
          end);
    s.pats_len <- len
  end

let ensure_words a n = if Array.length a >= n then a else Array.make n 0

let eval_all ?scratch:sc ?n_vars l =
  let s = match sc with Some s -> s | None -> scratch () in
  let nv = match n_vars with Some n -> n | None -> l.n in
  if nv < 0 then invalid_arg "Lattice.eval_all";
  let len = 1 lsl nv in
  let nw = Bitslice.words_for len in
  Obs.Metrics.incr m_kernel_calls;
  ensure_pats s ~n_vars:nv ~len;
  s.cond <- ensure_words s.cond (l.rows * l.cols);
  s.reach <- ensure_words s.reach (l.rows * l.cols);
  s.out <- ensure_words s.out nw;
  let cond = s.cond and reach = s.reach and out = s.out in
  let rows = l.rows and cols = l.cols in
  let ops = ref 0 in
  for w = 0 to nw - 1 do
    let tail = if w = nw - 1 then Bitslice.tail_mask len else -1 in
    for r = 0 to rows - 1 do
      for c = 0 to cols - 1 do
        cond.((r * cols) + c) <-
          (match l.sites.(r).(c) with
          | Zero -> 0
          | One -> tail
          | Lit (v, p) -> (
              (* variables beyond [nv] read as 0, like a minterm below
                 2^nv does on the scalar path *)
              let x = if v < nv then s.pats.(v).(w) else 0 in
              match p with Cube.Pos -> x | Cube.Neg -> lnot x land tail))
      done
    done;
    (* the top edge touches every row-0 site, so row 0 is already at its
       fixpoint (reach is always capped by cond) and is never updated *)
    Array.blit cond 0 reach 0 cols;
    if rows > 1 then Array.fill reach cols ((rows - 1) * cols) 0;
    let dirty = ref (rows > 1) in
    while !dirty do
      dirty := false;
      for r = 1 to rows - 1 do
        let base = r * cols in
        for c = 0 to cols - 1 do
          let i = base + c in
          let cw = cond.(i) in
          if cw <> 0 then begin
            let nb = ref reach.(i - cols) in
            if r + 1 < rows then nb := !nb lor reach.(i + cols);
            if c > 0 then nb := !nb lor reach.(i - 1);
            if c + 1 < cols then nb := !nb lor reach.(i + 1);
            let rw = reach.(i) lor (cw land !nb) in
            if rw <> reach.(i) then begin
              reach.(i) <- rw;
              dirty := true
            end
          end;
          incr ops
        done
      done;
      if !dirty then begin
        dirty := false;
        for r = rows - 1 downto 1 do
          let base = r * cols in
          for c = cols - 1 downto 0 do
            let i = base + c in
            let cw = cond.(i) in
            if cw <> 0 then begin
              let nb = ref reach.(i - cols) in
              if r + 1 < rows then nb := !nb lor reach.(i + cols);
              if c > 0 then nb := !nb lor reach.(i - 1);
              if c + 1 < cols then nb := !nb lor reach.(i + 1);
              let rw = reach.(i) lor (cw land !nb) in
              if rw <> reach.(i) then begin
                reach.(i) <- rw;
                dirty := true
              end
            end;
            incr ops
          done
        done
      end
    done;
    let bottom = (rows - 1) * cols in
    let acc = ref 0 in
    for c = 0 to cols - 1 do
      acc := !acc lor reach.(bottom + c)
    done;
    out.(w) <- !acc
  done;
  Obs.Metrics.add m_word_ops !ops;
  Truth_table.of_bitvec nv (Bitvec.of_words len (Array.sub out 0 nw))

let eval_all_lr ?scratch ?n_vars l = eval_all ?scratch ?n_vars (transpose l)

let conducting_sites l m =
  let acc = ref [] in
  for r = l.rows - 1 downto 0 do
    for c = l.cols - 1 downto 0 do
      if site_conducts l.sites.(r).(c) m then acc := (r, c) :: !acc
    done
  done;
  !acc

let paths_exist_through l m (r0, c0) =
  site_conducts l.sites.(r0).(c0) m
  && connected l m
       ~starts:(List.init l.cols (fun c -> (0, c)))
       ~finished:(fun (r, c) -> r = r0 && c = c0)
  && connected l m ~starts:[ (r0, c0) ] ~finished:(fun (r, _) -> r = l.rows - 1)

let site_to_string = function
  | Zero -> "0"
  | One -> "1"
  | Lit (v, Cube.Pos) -> Printf.sprintf "x%d" (v + 1)
  | Lit (v, Cube.Neg) -> Printf.sprintf "x%d'" (v + 1)

let pp ppf l =
  let width =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc s -> max acc (String.length (site_to_string s)))
          acc row)
      1 l.sites
  in
  Array.iteri
    (fun r row ->
      Format.pp_print_string ppf "| ";
      Array.iter
        (fun s ->
          let str = site_to_string s in
          Format.fprintf ppf "%s%s " str
            (String.make (width - String.length str) ' '))
        row;
      Format.pp_print_string ppf "|";
      if r < l.rows - 1 then Format.pp_print_newline ppf ())
    l.sites

let to_string l = Format.asprintf "%a" pp l
