(** Diode-resistor crossbar implementation of SOP functions.

    Fig. 3 of the paper: each product of [f] occupies a horizontal
    nanowire (row) and each distinct literal a vertical nanowire
    (column); one extra column collects the output.  A diode is
    programmed at [(row of product P, column of literal l)] when
    [l] appears in [P], and at [(row of P, output column)] for every
    product.  Row lines compute wired-AND of their literals; the output
    column computes wired-OR of the rows.

    Size: [#products x (#distinct literals + 1)] — optimal given the
    SOP, per the paper. *)

type t

val of_cover : Nxc_logic.Cover.t -> t
(** Raises [Invalid_argument] if the cover contains the universal cube
    (constants have no SOP crossbar; test with
    {!Nxc_logic.Cover.is_bottom} / handle upstream) or is empty. *)

val synthesize : Nxc_logic.Boolfunc.t -> t
(** Minimize and build.  Raises [Invalid_argument] on constant
    functions. *)

val n_vars : t -> int

val dims : t -> Model.dims
(** Rows = products, cols = distinct literals + 1. *)

val size_formula : Nxc_logic.Boolfunc.t -> Model.dims

val placement : t -> Model.placement

val cover : t -> Nxc_logic.Cover.t

val literal_columns : t -> (int * Nxc_logic.Cube.polarity) array
(** Column index [c] carries this literal, for [c < cols - 1]; the last
    column is the output. *)

val row_value : t -> int -> int -> bool
(** [row_value xbar m r]: wired-AND value of row [r] under assignment
    [m], computed from the placement. *)

val eval_int : t -> int -> bool

val eval : t -> bool array -> bool

(** {2 Word-parallel batch evaluation}

    Bit-sliced kernels in the {!Nxc_logic.Bitslice} layout: one input
    assignment (or one caller-supplied vector) per bit, packed into
    native-int words, so a single word pass evaluates up to
    [Bitslice.word_bits] assignments.  Results are bit-identical to the
    scalar {!eval} / {!eval_int} path — asserted by the property tests.

    Both kernels are {e scratch-stateless}: a scratch may be reused
    across calls with any crossbar shapes and arities and results never
    depend on prior contents.  When no scratch is given they use the
    calling domain's {!Model.domain_scratch}, so hot loops stay
    allocation-free and seeded parallel sweeps under [Nxc_par] remain
    deterministic. *)

val eval_all : ?scratch:Model.scratch -> ?n_vars:int -> t -> Nxc_logic.Truth_table.t
(** The full truth table of the crossbar over [n_vars] inputs (default
    {!n_vars}) in one batched sweep — the diode analogue of
    [Lattice.eval_all].  Variables beyond [n_vars] read as 0, matching
    the scalar path on minterms below [2^n_vars]. *)

val eval_vectors : ?scratch:Model.scratch -> t -> bool array array -> Nxc_logic.Bitvec.t
(** [eval_vectors x vectors] evaluates a caller-supplied vector block:
    bit [j] of the result is [eval x vectors.(j)].  Each vector must
    have length {!n_vars}; raises [Invalid_argument] otherwise.  The
    result is normalized (bits at or beyond the block size are 0). *)

val pp : Format.formatter -> t -> unit
