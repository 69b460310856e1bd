(** Front door to two-level minimization.

    The synthesis procedures of the paper consume SOP covers; this
    module picks a minimizer appropriate to the instance size:
    exact Quine–McCluskey for small functions, Minato–Morreale ISOP
    otherwise.

    All entry points cooperate with a {!Nxc_guard.Budget} (default: the
    ambient budget).  The legacy [Cover.t]-returning functions are
    {e total}: on budget exhaustion they silently degrade to a cheaper
    method and still return a function-equivalent cover.  The
    [_result] variants additionally honor a [Fail]-policy guard by
    reporting [`Budget_exhausted]. *)

type method_ =
  | Exact  (** Quine–McCluskey with exact covering *)
  | Heuristic  (** Minato–Morreale ISOP *)
  | Espresso_loop  (** ISOP followed by the espresso improvement loop *)
  | Auto

type outcome = {
  cover : Cover.t;
  degraded : bool;
      (** the requested method ran out of budget and a cheaper one
          produced the (still function-equivalent) cover *)
}

val sop : ?method_:method_ -> ?guard:Nxc_guard.Budget.t -> Boolfunc.t -> Cover.t
(** A (near-)minimal SOP cover of the function.  With [Auto] (default),
    functions with at most {!exact_threshold_vars} variables go through
    the exact minimizer, the rest through ISOP.  The result always
    satisfies [Cover ≡ f] (checked internally in debug builds via
    assertions), budget exhaustion included. *)

val exact_threshold_vars : int

val sop_table :
  ?method_:method_ -> ?guard:Nxc_guard.Budget.t -> Truth_table.t -> Cover.t

val sop_result :
  ?method_:method_ ->
  ?guard:Nxc_guard.Budget.t ->
  ?cover_backend:Qm.cover_backend ->
  Boolfunc.t ->
  (outcome, Nxc_guard.Error.t) result
(** Like {!sop} but reports degradation explicitly, and under a
    [Fail]-policy guard returns [`Budget_exhausted] instead of falling
    back.  [cover_backend] selects {!Qm}'s exact covering engine for
    this call (default: the process-wide {!Qm.cover_backend}[ ()]) —
    the explicit parameter is what lets batch jobs pin their backend
    independently of worker-domain state. *)

val sop_table_result :
  ?method_:method_ ->
  ?guard:Nxc_guard.Budget.t ->
  ?cover_backend:Qm.cover_backend ->
  Truth_table.t ->
  (outcome, Nxc_guard.Error.t) result

val dual_sop :
  ?method_:method_ -> ?guard:Nxc_guard.Budget.t -> Boolfunc.t -> Cover.t
(** SOP of the dual f{^D}: the second ingredient of the FET-array and
    lattice size formulas. *)

val verify : Cover.t -> Boolfunc.t -> bool
(** Exhaustive equivalence between a cover and a function. *)

val num_products : ?method_:method_ -> Boolfunc.t -> int
