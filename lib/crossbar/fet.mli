(** FET (CMOS-style) crossbar implementation of SOP functions.

    Fig. 3 of the paper: each product of [f] and of its dual [f{^D}]
    occupies a vertical nanowire (column) and each distinct literal a
    horizontal gate line (row).

    - a {e pull-up} column for a product [P] of [f] is a series chain of
      FETs gated by the literals of [P]: it conducts (drives the output
      to 1) exactly when [P] is satisfied;
    - a {e pull-down} column for a product [Q] of [f{^D}] is a series
      chain gated by the {e complements} of [Q]'s literals: it conducts
      (drives 0) exactly when every literal of [Q] is false, i.e. when
      [Q] witnesses [f{^D}](not x) = 1, i.e. [f](x) = 0.

    Duality makes the two networks complementary: on every input
    exactly one of them conducts ({!is_complementary}), which the test
    suite verifies — the structural analogue of CMOS's static
    correctness.

    Size: [#literals x (#products(f) + #products(f{^D}))]. *)

type t

val of_covers :
  n:int -> f_cover:Nxc_logic.Cover.t -> dual_cover:Nxc_logic.Cover.t -> t
(** Raises [Invalid_argument] on degenerate (constant) covers. *)

val synthesize : Nxc_logic.Boolfunc.t -> t
(** Minimize [f] and [f{^D}] and build.  Raises [Invalid_argument] on
    constant functions. *)

val n_vars : t -> int

val dims : t -> Model.dims

val size_formula : Nxc_logic.Boolfunc.t -> Model.dims

val placement : t -> Model.placement
(** Programmed crosspoints of both networks on the shared grid; the
    pull-up columns come first. *)

val num_pullup : t -> int

val num_pulldown : t -> int

val row_literals : t -> (int * Nxc_logic.Cube.polarity) array
(** Gate line of each row. *)

val pullup_conducts : t -> int -> bool
val pulldown_conducts : t -> int -> bool

val is_complementary : t -> bool
(** Exactly one network conducts on every assignment.  Always true for
    a function/dual cover pair. *)

val eval_int : t -> int -> bool

val eval : t -> bool array -> bool

(** {2 Word-parallel batch evaluation}

    Bit-sliced kernels in the {!Nxc_logic.Bitslice} layout, mirroring
    {!Diode.eval_all}: one assignment (or caller vector) per bit, one
    conduction word per gate line, series chains as word-ANDs and the
    two networks as word-ORs.  Complementarity is asserted word-wise —
    the batched form of {!eval_int}'s per-assignment assert — and
    results are bit-identical to the scalar path.

    Scratch-stateless and [Domain.DLS]-backed exactly like the diode
    kernels: reuse one scratch across any shapes, or omit it and get
    the per-domain instance (safe under [Nxc_par]). *)

val eval_all : ?scratch:Model.scratch -> ?n_vars:int -> t -> Nxc_logic.Truth_table.t
(** Full truth table over [n_vars] inputs (default {!n_vars}) in one
    batched sweep.  Variables beyond [n_vars] read as 0, matching the
    scalar path on minterms below [2^n_vars]. *)

val eval_vectors : ?scratch:Model.scratch -> t -> bool array array -> Nxc_logic.Bitvec.t
(** [eval_vectors x vectors]: bit [j] of the result is
    [eval x vectors.(j)].  Vectors must have length {!n_vars}
    ([Invalid_argument] otherwise); the result is normalized. *)

val pp : Format.formatter -> t -> unit
