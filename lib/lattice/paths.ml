module L = Nxc_logic
module Cube = L.Cube
module Cover = L.Cover
module Obs = Nxc_obs

let m_paths = Obs.Metrics.counter "lattice.paths_enumerated"
let h_paths = Obs.Metrics.hdr "lattice.paths_per_lattice"

(* Depth-first enumeration of simple paths from each top-row site to
   the bottom row, accumulating the product of literals along the way.
   A path dies when its product becomes contradictory or it steps on a
   constant-0 site. *)
let path_products ?(max_paths = 100_000) lattice =
  let n = Lattice.n_vars lattice in
  let rows = Lattice.rows lattice and cols = Lattice.cols lattice in
  let counted = ref 0 in
  let products = ref [] in
  let visited = Array.make_matrix rows cols false in
  let site_cube r c =
    match Lattice.site lattice r c with
    | Lattice.Zero -> None
    | Lattice.One -> Some (Cube.top n)
    | Lattice.Lit (v, p) -> Some (Cube.literal n v p)
  in
  let rec dfs r c product =
    match site_cube r c with
    | None -> ()
    | Some here -> (
        match Cube.intersect product here with
        | None -> () (* contradictory literals along this path *)
        | Some product ->
            if r = rows - 1 then begin
              incr counted;
              if !counted > max_paths then
                failwith "Paths.path_products: too many paths";
              products := product :: !products
            end
            else begin
              visited.(r).(c) <- true;
              List.iter
                (fun (r', c') ->
                  if
                    r' >= 0 && r' < rows && c' >= 0 && c' < cols
                    && not visited.(r').(c')
                  then dfs r' c' product)
                [ (r + 1, c); (r - 1, c); (r, c - 1); (r, c + 1) ];
              visited.(r).(c) <- false
            end)
  in
  for c = 0 to cols - 1 do
    dfs 0 c (Cube.top n)
  done;
  Obs.Metrics.add m_paths !counted;
  Obs.Metrics.hdr_observe h_paths !counted;
  Cover.cubes
    (Cover.single_cube_containment (Cover.make n !products))

let to_cover ?max_paths lattice =
  Cover.make (Lattice.n_vars lattice) (path_products ?max_paths lattice)

let consistent ?max_paths lattice =
  let cover = to_cover ?max_paths lattice in
  let n = Lattice.n_vars lattice in
  let rec go m =
    m >= 1 lsl n
    || (Cover.eval_int cover m = Lattice.eval_int lattice m && go (m + 1))
  in
  go 0
