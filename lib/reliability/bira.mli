(** Built-in redundancy analysis (BIRA) with spare rows and columns.

    Industrial memories pair BIST with {e repair}: the array is
    fabricated with [spare_rows] extra word lines and [spare_cols]
    extra bit lines, and after test a redundancy-analysis engine picks
    which defective lines to replace so the chip still presents a
    defect-free logical array.  The same idiom transfers to
    nano-crossbars (Section IV's fault-tolerance story): chips that the
    blind/greedy/hybrid BISM schemes declare unmappable can often be
    rescued by substituting a handful of spare lines.

    The physical chip is a {!Defect.t} of
    [(rows + spare_rows) x (cols + spare_cols)] crosspoints — the
    spares are ordinary lines at the high indices and may themselves be
    defective.  A {e repair} is a set of at most [spare_rows] rows and
    [spare_cols] columns of the full physical array whose removal
    leaves no defective crosspoint; the surviving lines then furnish
    the [rows x cols] logical array (the {!Bisr} remap table does the
    address translation).

    Analysis runs in the classical two phases:

    + {e must-repair}: a surviving row containing more defects than
      the column dimension has remaining spares can never be fixed by
      column substitutions alone, so it {e must} be replaced (and
      symmetrically for columns).  Applied to a fixpoint; overflow of
      either spare budget here proves the chip unrepairable.
    + {e spare allocation} for the leftover defects: either an exact
      branch-and-bound over (delete row | delete column) decisions that
      finds a repair using the fewest lines, or a greedy
      most-defects-first pass.  The exact search consumes one guard
      step per node and degrades to greedy on exhaustion (counted as
      [guard.degrade.bira_exact_to_greedy]) unless the budget's policy
      is [Fail], in which case [`Budget_exhausted] is reported. *)

type mode = Greedy | Exact

type solution = {
  repair_rows : int list;  (** physical rows replaced, ascending *)
  repair_cols : int list;  (** physical columns replaced, ascending *)
  must_rows : int list;  (** the subset of {!repair_rows} forced by
                             must-repair analysis *)
  must_cols : int list;
  degraded : bool;  (** exact allocation fell back to greedy *)
}

val spares_used : solution -> int
(** Total lines replaced, [|repair_rows| + |repair_cols|]. *)

val analyze :
  ?guard:Nxc_guard.Budget.t ->
  ?node_budget:int ->
  ?mode:mode ->
  Defect.t ->
  spare_rows:int ->
  spare_cols:int ->
  (solution, Nxc_guard.Error.t) result
(** [analyze chip ~spare_rows ~spare_cols] treats the last [spare_rows]
    rows and [spare_cols] columns of [chip] as spares and searches for
    a repair of the remaining logical array.

    Errors: [`Invalid_input] when the spare counts are negative or
    leave no logical array; [`Unsat] when the chip is proved
    unrepairable within the spare budget (must-repair overflow, greedy
    dead end, or an exhaustive exact search); [`Budget_exhausted] only
    when the [guard] (default: the ambient budget) trips under policy
    [Fail].  Under the default [Degrade] policy exhaustion of the exact
    search falls back to greedy and marks the solution [degraded].
    [node_budget] (default [200_000]) caps branch-and-bound nodes
    independently of the guard, like {!Defect_flow.exact_max}. *)

(** {2 Monte-Carlo harness}

    The repair arm of the BISM comparison benches: over a population of
    random chips, how many can be rescued, and at what spare cost? *)

type stats = {
  repaired : bool;
  spare_rows_used : int;
  spare_cols_used : int;
  must_rows_count : int;
  must_cols_count : int;
  degraded : bool;  (** the exact search degraded to greedy *)
}

type mc = {
  mc_trials : int;
  mc_repaired : int;
  mc_avg_spares : float;  (** spare lines used per repaired chip *)
  mc_must_lines : int;  (** must-repair lines across all trials *)
  mc_degraded : int;  (** trials whose exact search degraded *)
}

val monte_carlo :
  ?pool:Nxc_par.Pool.t ->
  ?guard:Nxc_guard.Budget.t ->
  ?mode:mode ->
  Rng.t ->
  trials:int ->
  rows:int ->
  cols:int ->
  spare_rows:int ->
  spare_cols:int ->
  profile:Defect.profile ->
  mc * stats array
(** [monte_carlo rng ~trials ~rows ~cols ~spare_rows ~spare_cols
    ~profile] fabricates [trials] random
    [(rows + spare_rows) x (cols + spare_cols)] chips and runs
    {!analyze} on each.  Per-trial RNG streams are split off [rng] in
    trial order up front, so results are bit-identical with and without
    [pool].  Trials always run the guard in [Degrade] mode (a sweep
    must wind down, not abort), so only [`Unsat]/degraded outcomes
    appear in the stats.
    @raise Invalid_argument when [trials <= 0], a dimension is
    non-positive, or a spare count is negative. *)
