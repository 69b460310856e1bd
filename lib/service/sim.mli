(** The seeded simulation job kinds, one typed function each.  The
    {!Engine} turns their results into the payloads of [flow], [bist],
    [bism], [yield] and [repair] jobs and the CLI subcommands of the same
    names print them as text, so both front ends run one computation.
    Arguments must pass {!Job.validate}: an unknown [scheme] or [mode]
    raises [Invalid_argument].  [?pool] runs the Monte-Carlo trials in
    parallel, with identical results for every pool. *)

module R := Nxc_reliability

val chip : n:int -> density:float -> seed:int -> R.Defect.t
(** The [n x n] chip with uniform defects at [density]. *)

val flow :
  n:int -> density:float -> seed:int -> Nxc_logic.Boolfunc.t ->
  (R.Defect.t * Nxc_core.Flow.result, Nxc_guard.Error.t) result
(** {!Nxc_core.Flow.run_result} on {!chip}, its mapping seeded by
    [seed + 1]. *)

type bist = {
  plan : R.Bist.plan;
  faults : int;  (** size of the fault universe *)
  coverage : float;  (** fraction of [faults] detected *)
  undetected : R.Fault_model.fault list;
}

val bist : rows:int -> cols:int -> bist

type bism = Heuristic of R.Bism.mc | Exact of R.Sat_assign.mc

val bism :
  ?pool:Nxc_par.Pool.t -> n:int -> k:int -> density:float -> seed:int ->
  trials:int -> string -> bism
(** Self-map a [k x k] array onto [trials] chips with scheme ["blind"],
    ["greedy"] or ["hybrid"] (at most 1000 configurations a chip), or
    decide mappability exactly with ["sat"]. *)

type yield = {
  mean_max_k : float;  (** mean largest recoverable k *)
  guaranteed_k : (float * int) list;  (** k reached at yield 0.5, 0.9, 0.99 *)
}

val yield :
  ?pool:Nxc_par.Pool.t -> n:int -> density:float -> seed:int -> trials:int ->
  unit -> yield
(** The mean is seeded by [seed], the guaranteed sizes by [seed + 1]. *)

val repair :
  ?pool:Nxc_par.Pool.t -> rows:int -> cols:int -> spare_rows:int ->
  spare_cols:int -> density:float -> seed:int -> trials:int -> string ->
  R.Bira.mc * Nxc_crossbar.Metrics.spare_overhead
(** Spare repair in mode ["exact"] or ["greedy"], with the spares' area
    overhead. *)
