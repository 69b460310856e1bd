(** Four-terminal switch lattices.

    A lattice is a rectangular grid of four-terminal switches (Fig. 1 of
    the paper).  Each site is controlled by a literal or a constant;
    when its control evaluates to 1 the switch connects to all four
    neighbours, when 0 it isolates.  The lattice computes 1 on an input
    assignment iff a path of conducting sites connects the top edge to
    the bottom edge (Fig. 4).  Left-to-right connectivity computes the
    dual function for Altun–Riedel lattices — exposed here as
    {!eval_lr}. *)

type site =
  | Zero  (** permanently open switch *)
  | One   (** permanently closed switch *)
  | Lit of int * Nxc_logic.Cube.polarity
      (** switch controlled by a literal of variable [i] (0-based) *)

type t

val make : n_vars:int -> site array array -> t
(** [make ~n_vars sites] with [sites] in row-major order; all rows must
    have equal positive length.  Raises [Invalid_argument] otherwise. *)

val n_vars : t -> int

val rows : t -> int

val cols : t -> int

val area : t -> int
(** [rows * cols], the paper's size metric. *)

val site : t -> int -> int -> site
(** [site l r c]; raises [Invalid_argument] out of range. *)

val sites : t -> site array array
(** A copy of the grid. *)

val map : (int -> int -> site -> site) -> t -> t

val site_conducts : site -> int -> bool
(** Whether a site conducts under the assignment encoded in the int. *)

val eval_int : t -> int -> bool
(** Top-to-bottom connectivity under an assignment. *)

val eval : t -> bool array -> bool

val eval_lr : t -> int -> bool
(** Left-to-right connectivity — for lattices built by
    {!Altun_riedel.synthesize} this computes the dual function. *)

(** {1 Bit-sliced evaluation}

    The word-parallel kernel evaluates the lattice on {e all} [2{^n}]
    assignments at once: each site carries a conduction vector with one
    bit per assignment, and top-to-bottom connectivity is computed for
    every assignment simultaneously by word-parallel frontier relaxation
    to fixpoint.  One call replaces [2{^n}] scalar {!eval_int} BFS runs.

    Work counters are published as [bitslice.kernel_calls] and
    [bitslice.word_ops] in [Nxc_obs.Metrics]. *)

type scratch
(** Reusable kernel buffers (variable patterns, conduction/reach grids,
    output words).  A scratch may be reused across calls with any
    lattice shapes and arities — buffers grow on demand and results are
    independent of prior contents — but it must not be shared between
    domains; keep one per domain (e.g. via [Domain.DLS]) in parallel
    code. *)

val scratch : unit -> scratch
(** A fresh scratch.  Hot loops (equivalence checking, Monte-Carlo
    trials, [Optimal.search]) should allocate one and thread it through
    every call; one-shot callers can omit the argument. *)

val eval_all : ?scratch:scratch -> ?n_vars:int -> t -> Nxc_logic.Truth_table.t
(** [eval_all ?scratch ?n_vars l] is the truth table of top-to-bottom
    connectivity over all assignments of [n_vars] variables (default:
    the lattice's own arity).  Variables with index [>= n_vars] read as
    0, matching what {!eval_int} does on minterms below [2{^n_vars}];
    [n_vars] above the lattice arity is also allowed.  Bit-identical to
    tabulating {!eval_int}. *)

val eval_all_lr : ?scratch:scratch -> ?n_vars:int -> t -> Nxc_logic.Truth_table.t
(** Same for left-to-right connectivity (the dual function on
    Altun–Riedel lattices); equivalent to [eval_all] of {!transpose}. *)

val conducting_sites : t -> int -> (int * int) list
(** Sites that conduct under an assignment (row, col). *)

val paths_exist_through : t -> int -> (int * int) -> bool
(** Whether some top-bottom conducting path passes through the given
    site under the assignment. *)

val transpose : t -> t

val pp : Format.formatter -> t -> unit
(** Grid rendering, one row per line, e.g.
    {v
    | x1  x2' 1  |
    | x3  0   x1 |
    v} *)

val to_string : t -> string
