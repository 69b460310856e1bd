module L = Nxc_logic

type report = {
  impl : string;
  rows : int;
  cols : int;
  crosspoints : int;
  programmed : int;
  area_nm2 : float;
  delay_ps : float;
  energy_aj : float;
}

let of_dims ?(tech = Model.diode_tech) ~impl ~programmed ~path_length dims =
  let { Model.rows; cols } = dims in
  { impl;
    rows;
    cols;
    crosspoints = rows * cols;
    programmed;
    area_nm2 = float_of_int rows *. tech.Model.pitch_nm
               *. (float_of_int cols *. tech.Model.pitch_nm);
    delay_ps = float_of_int path_length *. tech.Model.crosspoint_delay_ps;
    energy_aj = float_of_int programmed *. tech.Model.crosspoint_energy_aj }

let diode ?(tech = Model.diode_tech) x =
  let dims = Diode.dims x in
  of_dims ~tech ~impl:"diode"
    ~programmed:(Model.programmed (Diode.placement x))
    ~path_length:(dims.Model.rows + dims.Model.cols)
    dims

let fet ?(tech = Model.fet_tech) x =
  let dims = Fet.dims x in
  (* longest series chain: max programmed devices in one column *)
  let placement = Fet.placement x in
  let per_col = Array.make dims.Model.cols 0 in
  Model.iter_programmed (fun _ c -> per_col.(c) <- per_col.(c) + 1) placement;
  let path_length = Array.fold_left max 1 per_col in
  of_dims ~tech ~impl:"fet"
    ~programmed:(Model.programmed placement)
    ~path_length dims

let pp ppf r =
  Format.fprintf ppf
    "%-14s %3dx%-3d  xpoints %4d  used %4d  area %8.0f nm^2  delay %6.1f ps  \
     energy %7.1f aJ"
    r.impl r.rows r.cols r.crosspoints r.programmed r.area_nm2 r.delay_ps
    r.energy_aj

type spare_overhead = {
  logical_rows : int;
  logical_cols : int;
  spare_rows : int;
  spare_cols : int;
  logical_area_nm2 : float;
  physical_area_nm2 : float;
  area_overhead : float;
}

let spare_overhead ?(tech = Model.diode_tech) ~rows ~cols ~spare_rows
    ~spare_cols () =
  if rows <= 0 || cols <= 0 then invalid_arg "Metrics.spare_overhead: dims";
  if spare_rows < 0 || spare_cols < 0 then
    invalid_arg "Metrics.spare_overhead: spares";
  let area r c =
    float_of_int r *. tech.Model.pitch_nm
    *. (float_of_int c *. tech.Model.pitch_nm)
  in
  let logical = area rows cols in
  let physical = area (rows + spare_rows) (cols + spare_cols) in
  { logical_rows = rows;
    logical_cols = cols;
    spare_rows;
    spare_cols;
    logical_area_nm2 = logical;
    physical_area_nm2 = physical;
    area_overhead = (physical -. logical) /. logical }
