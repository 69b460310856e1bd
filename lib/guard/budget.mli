(** Cooperative resource budgets: a step counter plus an optional
    monotonic-clock deadline, checked inside the hot loops of every
    potentially exponential search in the pipeline (QM covering,
    espresso rounds, [Nxc_lattice.Optimal], the defect-flow
    branch-and-bound, BISM retry loops).

    A budget is {e cooperative}: loops call {!step} once per unit of
    work and bail out when it returns [false].  The deadline is
    consulted every 64 steps so the common path stays a couple of
    integer compares.  What happens on exhaustion is decided by the
    budget's {!type-policy}:

    - [Degrade] (the default): the algorithm falls back to a cheaper
      method that still returns a correct (if larger) answer — exact QM
      to ISOP, exact extraction to greedy, blind mapping to greedy
      repair.  Every such fallback is counted under [guard.degrade.*].
    - [Fail]: result-returning entry points report
      [`Budget_exhausted] instead of degrading.

    Besides explicit [?guard] arguments there is an {e ambient} current
    budget ({!current} / {!set_current} / {!with_current}): entry
    points default to it, which lets the CLI (or a test harness) bound
    a whole pipeline without threading a value through every caller.
    The default ambient budget is {!unlimited}. *)

type policy = Fail | Degrade

type t

val unlimited : t
(** Shared budget that never exhausts (policy [Degrade]). *)

val create :
  ?label:string ->
  ?policy:policy ->
  ?steps:int ->
  ?deadline_ms:float ->
  unit ->
  t
(** [create ()] with neither [steps] nor [deadline_ms] never exhausts.
    [steps] caps cooperative steps; [deadline_ms] sets a wall-clock
    deadline relative to now ([<= 0.] trips at the first step). *)

val step : t -> bool
(** Consume one step.  [false] once the budget is exhausted (sticky). *)

val charge : t -> int -> bool
(** [charge t k] consumes [k] steps at once, for loops that count their
    work in bulk; [step t] is [charge t 1]. *)

val alive : t -> bool

val exhausted : t -> bool

val steps_used : t -> int

val policy : t -> policy

val label : t -> string

val degrading : t -> t
(** A [Degrade]-policy view of the same budget: step accounting and
    exhaustion are shared with the original, only the policy differs.
    Used by total legacy entry points that must never fail on budget. *)

val error : t -> Error.t
(** The [`Budget_exhausted] error describing this budget's state. *)

val degrade : string -> unit
(** [degrade site] records one graceful degradation at [site] in the
    [guard.degradations] total and the [guard.degrade.<site>]
    counter. *)

(** {2 Partitioning across parallel workers}

    {!Nxc_par.Pool} splits a budget into per-worker slices before a
    parallel batch and charges the parent back at join, so exhaustion
    under parallelism still degrades gracefully instead of letting
    workers race the same mutable counter. *)

val is_limited : t -> bool
(** [true] when the budget has a step cap or a deadline, i.e. when
    partitioning it is worth the bother. *)

val remaining : t -> int option
(** Steps left before the cap trips: [None] when the budget has no step
    cap, [Some 0] once exhausted.  Admission controllers use this to
    reject work up-front instead of letting it trip mid-flight. *)

val partition : t -> int -> t array
(** [partition t n] is [n] fresh slices of [t]'s remaining allowance:
    each gets an equal share of the remaining steps, the same absolute
    deadline, and policy [Degrade] (a worker must wind down, not raise).
    If [t] is already exhausted every slice starts exhausted.  [t]
    itself is not charged until {!absorb}. *)

val absorb : t -> t array -> unit
(** [absorb t slices] charges the steps the slices consumed back to
    [t], tripping [t] if the total now exceeds its cap. *)

(** {2 Ambient budget} *)

val current : unit -> t
(** The calling domain's ambient budget (domain-local: a freshly
    spawned domain starts at {!unlimited}). *)

val set_current : t -> unit

val with_current : t -> (unit -> 'a) -> 'a
(** Scoped {!set_current}; restores the previous budget on exit,
    exception-safe. *)

val resolve : t option -> t
(** [resolve guard] is [g] for [Some g] and {!current}[ ()]
    otherwise — the standard prologue of every [?guard] entry point. *)
