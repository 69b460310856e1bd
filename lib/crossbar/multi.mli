(** Multi-output diode crossbar (PLA-style product sharing).

    Real designs map function {e vectors}, not single outputs: an
    AND-plane of shared products feeds an OR-plane with one output
    column per function.  A product row serves every output it
    implies, so outputs with common structure (adder bits, symmetric
    counters) share rows — the area advantage this module quantifies
    against per-output single crossbars.

    Product selection is a greedy set cover over (minterm, output)
    targets with candidates drawn from each output's minimized cover
    plus the covers of pairwise conjunctions (good sharing seeds). *)

type t

val synthesize : Nxc_logic.Boolfunc.t list -> t
(** All functions must share an arity; constant outputs are rejected
    ([Invalid_argument]), as in {!Diode}. *)

val n_vars : t -> int

val num_outputs : t -> int

val num_products : t -> int

val dims : t -> Model.dims
(** Rows = shared products; cols = distinct literals + one output
    column per function. *)

val crosspoints : t -> int

val products : t -> Nxc_logic.Cube.t array

val connected_outputs : t -> int -> bool array
(** [connected_outputs x r]: which outputs row [r] drives. *)

val eval_int : t -> int -> bool array
(** All outputs under one assignment. *)

val pp : Format.formatter -> t -> unit
