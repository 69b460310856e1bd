(** Front door to two-level minimization.

    The synthesis procedures of the paper consume SOP covers; this
    module picks the one minimizer for the instance size: exact
    Quine–McCluskey for functions of at most {!exact_threshold_vars}
    variables, Minato–Morreale ISOP otherwise.  Within QM the covering
    engine is {!Qm.Bnb} unless a caller passes [~cover_backend:Sat].

    All entry points cooperate with a {!Nxc_guard.Budget} (default: the
    ambient budget).  The legacy [Cover.t]-returning functions are
    {e total}: on budget exhaustion they silently degrade to a cheaper
    method and still return a function-equivalent cover.  The
    [_result] variants additionally honor a [Fail]-policy guard by
    reporting [`Budget_exhausted]. *)

type outcome = {
  cover : Cover.t;
  degraded : bool;
      (** the cover is not known to be minimum: QM's covering step took
          a fallback ({!Qm.stats}[.exact] is false) or the guard ran out
          and ISOP produced the (still function-equivalent) cover;
          counted under [minimize.degraded] *)
}

val sop : ?guard:Nxc_guard.Budget.t -> Boolfunc.t -> Cover.t
(** A (near-)minimal SOP cover of the function: functions with at most
    {!exact_threshold_vars} variables go through the exact minimizer,
    the rest through ISOP.  The result always satisfies [Cover ≡ f]
    (checked internally in debug builds via assertions), budget
    exhaustion included. *)

val exact_threshold_vars : int

val sop_table : ?guard:Nxc_guard.Budget.t -> Truth_table.t -> Cover.t

val sop_result :
  ?guard:Nxc_guard.Budget.t ->
  ?cover_backend:Qm.cover_backend ->
  Boolfunc.t ->
  (outcome, Nxc_guard.Error.t) result
(** Like {!sop} but reports degradation explicitly, and under a
    [Fail]-policy guard returns [`Budget_exhausted] instead of falling
    back.  [cover_backend] selects {!Qm}'s exact covering engine for
    this call (default {!Qm.Bnb}). *)

val sop_table_result :
  ?guard:Nxc_guard.Budget.t ->
  ?cover_backend:Qm.cover_backend ->
  Truth_table.t ->
  (outcome, Nxc_guard.Error.t) result

val dual_sop : ?guard:Nxc_guard.Budget.t -> Boolfunc.t -> Cover.t
(** SOP of the dual f{^D}: the second ingredient of the FET-array and
    lattice size formulas. *)

val verify : Cover.t -> Boolfunc.t -> bool
(** Exhaustive equivalence between a cover and a function. *)
