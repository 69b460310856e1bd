(** Exact two-level minimization (Quine–McCluskey).

    Prime implicant generation by iterative merging, then a covering
    step: essential primes first, the remaining minterms by the
    cyclic-core solver {!Covering.solve} — a greedy incumbent, then
    essential/row-dominance/column-dominance reductions to a fixpoint,
    an independent-row lower bound and branching on the row with the
    fewest primes.  The solver always holds a cover; when its work cap
    or the guard cuts the search short it returns the best cover found
    (at worst the greedy one) with [exact = false].

    Both phases are exponential in the worst case, so they cooperate
    with a {!Nxc_guard.Budget}: prime generation consumes one step per
    merge attempt, covering one step per bitset row or column it visits.
    When the guard trips during covering the result stays
    function-equivalent (the prime set is complete); when it trips
    during prime {e generation} the implicant set is unusable, and
    {!minimize} degrades to a Minato–Morreale ISOP cover of the same
    [(on, dc)] interval — still correct, not minimal — while
    {!minimize_result} reports [`Budget_exhausted] so callers with a
    [Fail] policy can refuse to degrade. *)

val primes : n:int -> on:int list -> dc:int list -> Cube.t list
(** All prime implicants of the function given by ON-set and DC-set
    minterms.  Unbudgeted (never degrades): intended for tests and
    calibration. *)

(** {2 Covering backends}

    The covering step (after essential-prime extraction) can run on two
    exact engines: {!Covering.solve} ([Bnb]) or the {!Sat_cover}
    encoding over the {!Nxc_sat} CDCL solver ([Sat]).  The engine is
    chosen per call through [?cover_backend] and defaults to [Bnb];
    nothing process-wide selects it.  Both return minimum covers when
    they complete, so covers only differ in which equally-sized solution
    they pick; E18 verifies the two backends semantically equivalent on
    the paper's suites.

    On budget exhaustion the [Sat] backend degrades to [Bnb] under a
    [guard.degrade.sat_to_bnb] count (with the guard already dead, the
    solver returns its greedy incumbent at once) — except under a
    [Fail]-policy guard, where {!minimize_result} reports
    [`Budget_exhausted] instead. *)

type cover_backend = Bnb | Sat

type stats = {
  num_primes : int;  (** 0 when prime generation was cut short *)
  num_essential : int;
  exact : bool;
      (** false when the covering search was cut short, so the cover is
          not known to be minimum *)
}

val minimize :
  ?dc:int list ->
  ?budget:int ->
  ?guard:Nxc_guard.Budget.t ->
  ?cover_backend:cover_backend ->
  n:int ->
  int list ->
  Cover.t * stats
(** [minimize ~n on] is a minimum (or near-minimum, see
    {!field-stats.exact}) cover of the ON-set minterms using the DC-set
    freely.  [budget] caps the covering search's work in bitset visits
    (default: {!Covering.solve}'s); [guard] (default: the ambient
    budget) bounds total work;
    [cover_backend] (default [Bnb]) picks the exact covering engine.
    Total: on guard exhaustion it returns the degraded ISOP cover
    described above and counts a [guard.degrade.qm_to_isop]. *)

val minimize_result :
  ?dc:int list ->
  ?budget:int ->
  ?guard:Nxc_guard.Budget.t ->
  ?cover_backend:cover_backend ->
  n:int ->
  int list ->
  (Cover.t * stats, Nxc_guard.Error.t) result
(** Like {!minimize} but reports [`Budget_exhausted] instead of
    computing the ISOP fallback when the guard trips during prime
    generation (or, under a [Fail]-policy guard, during [Sat]-backend
    covering). *)

val minimize_table :
  ?budget:int ->
  ?guard:Nxc_guard.Budget.t ->
  ?cover_backend:cover_backend ->
  Truth_table.t ->
  Cover.t * stats

val minimize_func :
  ?budget:int ->
  ?guard:Nxc_guard.Budget.t ->
  ?cover_backend:cover_backend ->
  Boolfunc.t ->
  Cover.t * stats
