(** First-order area / delay / energy estimates for crossbar and
    lattice implementations.

    The DATE'17 paper optimizes array {e size}; the project it
    summarizes also targets delay and power (Section II).  These
    estimates give those axes a concrete, clearly-documented model:

    - area: [(rows * pitch) * (cols * pitch)];
    - delay: worst conduction-path length (in crosspoints) times the
      per-crosspoint RC contribution;
    - energy: number of switching crosspoints times per-device energy.

    The absolute values are technology-parameter scaled and only
    meaningful relatively, which is how the benches use them. *)

type report = {
  impl : string;
  rows : int;
  cols : int;
  crosspoints : int;
  programmed : int;  (** programmed/used devices *)
  area_nm2 : float;
  delay_ps : float;
  energy_aj : float;
}

val of_dims :
  ?tech:Model.tech ->
  impl:string ->
  programmed:int ->
  path_length:int ->
  Model.dims ->
  report

val diode : ?tech:Model.tech -> Diode.t -> report
(** Path: literal column -> row -> output column: [2] crosspoints plus
    wire spans, modelled as [rows + cols]. *)

val fet : ?tech:Model.tech -> Fet.t -> report
(** Path: longest series chain = largest product size. *)

val pp : Format.formatter -> report -> unit

(** {2 Spare-line area overhead}

    A repairable crossbar (see {!Nxc_reliability.Bira}) fabricates
    [spare_rows]/[spare_cols] extra lines.  The overhead report prices
    that redundancy: how much silicon the spare capacity costs relative
    to the logical array alone, in the same pitch-squared area model as
    {!of_dims}. *)

type spare_overhead = {
  logical_rows : int;
  logical_cols : int;
  spare_rows : int;
  spare_cols : int;
  logical_area_nm2 : float;
  physical_area_nm2 : float;
  area_overhead : float;
      (** [(physical - logical) / logical]; [0.] with no spares *)
}

val spare_overhead :
  ?tech:Model.tech ->
  rows:int -> cols:int -> spare_rows:int -> spare_cols:int -> unit ->
  spare_overhead
(** @raise Invalid_argument on non-positive logical dimensions or
    negative spare counts. *)
