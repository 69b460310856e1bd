(** Minimum unate covering: choose the fewest sets (columns) that
    cover every element (row).

    This is the covering step of Quine–McCluskey, with rows the ON
    minterms left after essential primes and columns the remaining
    primes.  {!solve} is a cyclic-core branch and bound in the style of
    Coudert, "Two-level logic minimization: an overview" (Integration,
    1994), on bitsets of native-int words:

    - {b incumbent}: it starts from a greedy cover (largest gain first,
      the lowest index among equal gains), so it always holds a valid
      answer;
    - {b reductions}, repeated to a fixpoint at every node: essential
      columns (a row left with one column), row dominance (a row whose
      columns include another row's goes) and column dominance (a
      column whose rows lie inside another column's goes);
    - {b lower bound}: the larger of a greedy set of rows that pairwise
      share no column and [⌈rows / most rows one column covers⌉];
    - {b branching}: on the row with the fewest columns, each branch
      excluding the columns its earlier siblings chose.

    Work is charged per bitset visit — one row or column compared,
    counted or intersected, a few words each — against both the
    [budget] cap and the guard, so a node full of dominance checks
    costs what it does and the cap bounds time, not just node count. *)

type outcome = {
  chosen : int list;  (** the chosen set indices; a valid cover always *)
  exact : bool;
      (** [true] when the search finished, so [chosen] is minimum;
          [false] when the budget or the guard cut it short and
          [chosen] is the best cover found (at worst the greedy one) *)
  nodes : int;  (** search nodes visited *)
}

val solve :
  ?budget:int ->
  guard:Nxc_guard.Budget.t ->
  num_sets:int ->
  covered_by:int list array ->
  unit ->
  outcome
(** [solve ~guard ~num_sets ~covered_by ()] is a minimum cover of the
    elements, element [e] being covered by the sets in
    [covered_by.(e)].  [budget] (default 1_000_000) caps the work in
    bitset visits; each visit also consumes one [guard] step.  On an
    exhausted guard, or with [budget = 0], it returns the greedy cover
    at once.  Deterministic.
    @raise Invalid_argument when an element has no covering set or a
    set index is out of range. *)
