module L = Nxc_logic
module Cube = L.Cube
module Cover = L.Cover
module Tt = L.Truth_table

type t = {
  n : int;
  outputs : L.Boolfunc.t array;
  products : Cube.t array;
  drives : bool array array;  (* product -> output *)
  literals : (int * Cube.polarity) array;
}

let cube_implies_table n cube tt =
  Tt.implies (Tt.of_cover (Cover.make n [ cube ])) tt

let synthesize fs =
  (match fs with [] -> invalid_arg "Multi.synthesize: no outputs" | _ -> ());
  let outputs = Array.of_list fs in
  let n = L.Boolfunc.n_vars outputs.(0) in
  Array.iter
    (fun f ->
      if L.Boolfunc.n_vars f <> n then
        invalid_arg "Multi.synthesize: arity mismatch";
      if L.Boolfunc.is_const f <> None then
        invalid_arg "Multi.synthesize: constant output")
    outputs;
  let k = Array.length outputs in
  let tables = Array.map L.Boolfunc.table outputs in
  (* candidate products: each output's own cover, plus covers of
     pairwise conjunctions as sharing seeds *)
  let candidates = Hashtbl.create 64 in
  let add_cover c = List.iter (fun cube -> Hashtbl.replace candidates cube ()) (Cover.cubes c) in
  Array.iter (fun f -> add_cover (L.Minimize.sop f)) outputs;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let conj = Tt.band tables.(i) tables.(j) in
      if Tt.is_const conj = None then
        add_cover (L.Minimize.sop_table conj)
    done
  done;
  let cand = Hashtbl.fold (fun c () acc -> c :: acc) candidates [] in
  let cand = List.sort Cube.compare cand in
  (* usable: a candidate may drive output o iff it implies f_o *)
  let usable =
    List.map
      (fun cube ->
        (cube, Array.map (fun tt -> cube_implies_table n cube tt) tables))
      cand
  in
  (* greedy cover of all (minterm, output) targets *)
  let remaining = Hashtbl.create 256 in
  Array.iteri
    (fun o tt -> List.iter (fun m -> Hashtbl.replace remaining (m, o) ()) (Tt.minterms tt))
    tables;
  let chosen = ref [] in
  while Hashtbl.length remaining > 0 do
    let best = ref None and best_gain = ref 0 in
    List.iter
      (fun (cube, mask) ->
        let gain = ref 0 in
        Hashtbl.iter
          (fun (m, o) () ->
            if mask.(o) && Cube.eval_int cube m then incr gain)
          remaining;
        if !gain > !best_gain then begin
          best_gain := !gain;
          best := Some (cube, mask)
        end)
      usable;
    match !best with
    | None ->
        (* cannot happen: each output's own cover cubes are usable and
           jointly cover its minterms *)
        assert false
    | Some (cube, mask) ->
        chosen := (cube, mask) :: !chosen;
        let to_remove =
          Hashtbl.fold
            (fun (m, o) () acc ->
              if mask.(o) && Cube.eval_int cube m then (m, o) :: acc else acc)
            remaining []
        in
        List.iter (fun key -> Hashtbl.remove remaining key) to_remove
  done;
  let chosen = List.rev !chosen in
  let products = Array.of_list (List.map fst chosen) in
  let drives = Array.of_list (List.map snd chosen) in
  let literals =
    Array.of_list
      (Cover.distinct_literals (Cover.make n (Array.to_list products)))
  in
  { n; outputs; products; drives; literals }

let n_vars x = x.n
let num_outputs x = Array.length x.outputs
let num_products x = Array.length x.products

let dims x =
  { Model.rows = num_products x;
    cols = Array.length x.literals + num_outputs x }

let crosspoints x = Model.crosspoints (dims x)

let products x = Array.copy x.products

let connected_outputs x r = Array.copy x.drives.(r)

let eval_int x m =
  let out = Array.make (num_outputs x) false in
  Array.iteri
    (fun r cube ->
      if Cube.eval_int cube m then
        Array.iteri (fun o d -> if d then out.(o) <- true) x.drives.(r))
    x.products;
  out

let pp ppf x =
  let d = dims x in
  Format.fprintf ppf "multi-output crossbar %dx%d (%d products, %d outputs)@."
    d.Model.rows d.Model.cols (num_products x) (num_outputs x);
  Array.iteri
    (fun r cube ->
      Format.fprintf ppf "  P%-2d %a -> %s@." (r + 1) Cube.pp cube
        (String.concat ""
           (Array.to_list
              (Array.map (fun b -> if b then "1" else ".") x.drives.(r)))))
    x.products
