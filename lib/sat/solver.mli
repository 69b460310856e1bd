(** Self-contained CDCL SAT solver.

    A conflict-driven clause-learning solver in the MiniSat lineage:
    two-watched-literal unit propagation, first-UIP conflict analysis
    with clause learning and non-chronological backjumping, VSIDS-style
    variable activities with exponential decay, phase saving, a Luby
    restart schedule, and incremental solving under assumptions.

    The solver exists to make the two hard combinatorial cores of the
    pipeline exact where the heuristics give up: minimum set cover in
    Quine{e –}McCluskey ([Nxc_logic.Sat_cover]) and defect-aware cell
    assignment ([Nxc_reliability.Sat_assign]).  It deliberately has no
    dependencies beyond [Nxc_obs] (metrics) and [Nxc_guard] (budgets).

    {2 Literals}

    Literals follow the DIMACS convention: variable [v] (as returned by
    {!new_var}, numbered from 1) is the positive literal [v], its
    negation is [-v].  [0] is never a literal.

    {2 Budgets}

    Solving charges the ambient (or explicit) {!Nxc_guard.Budget}: one
    step per conflict and one step per 64 propagations, so a budget in
    steps is roughly a budget in conflicts for hard instances and in
    propagations for easy ones.  On exhaustion {!solve} returns
    {!Unknown} — never a wrong answer — and the caller decides whether
    to degrade (see [guard.degrade.sat_to_bnb] /
    [guard.degrade.sat_to_greedy]) or fail.

    {2 Determinism}

    All tie-breaking (activity heap order, phase initialisation) is a
    pure function of the construction [seed] and the clause/solve
    sequence, independent of wall clock and of any [Nxc_par.Pool]:
    the same seed and the same call sequence produce the same model. *)

type t

type result =
  | Sat  (** a model was found; query it with {!value} *)
  | Unsat
      (** no model exists under the given assumptions (the clause set
          itself may still be satisfiable when assumptions were
          passed) *)
  | Unknown  (** the budget tripped before an answer was proven *)

val create : ?seed:int -> unit -> t
(** A fresh solver with no variables and no clauses.  [seed] (default
    0) drives saved-phase initialisation; two solvers built with the
    same seed and fed the same calls behave identically. *)

val new_var : t -> int
(** Allocate the next variable; returns its positive literal (1, 2,
    ...). *)

val add_clause : t -> int list -> unit
(** Add a disjunction of literals.  Tautologies are dropped, false
    literals at level 0 are stripped, the empty clause marks the solver
    unsatisfiable.  Must be called outside {!solve} (the solver is
    always at decision level 0 between solves).

    @raise Invalid_argument on [0] or an out-of-range variable. *)

val solve : ?guard:Nxc_guard.Budget.t -> ?assumptions:int list -> t -> result
(** Decide satisfiability under the given assumption literals (all
    forced true for this call only — learned clauses persist, the
    assumptions do not).  Returns {!Unknown} if the budget trips
    mid-search; the solver remains usable and a later call with a
    fresh budget picks up the learned clauses. *)

val value : t -> int -> bool
(** [value t v] is variable [v]'s polarity in the model of the last
    {!Sat} answer.  Meaningless (but safe) after [Unsat]/[Unknown]. *)

val ok : t -> bool
(** [false] once the clause set is unsatisfiable at level 0 (e.g. the
    empty clause was added); {!solve} then answers {!Unsat}
    immediately. *)

type stats = {
  conflicts : int;
  propagations : int;
  decisions : int;
  restarts : int;
  learned : int;  (** learned clauses currently retained *)
}

val stats : t -> stats
(** Totals since {!create}.  The same numbers feed the [sat.*] metrics
    ([sat.conflicts], [sat.propagations], [sat.decisions],
    [sat.restarts], [sat.learned_clauses], [sat.solve_calls]) and the
    [sat.latency.solve] HDR histogram (microseconds per {!solve}). *)
