(** Job specifications: the request half of the service protocol.

    A job is one line of JSON.  Every spec carries a [kind] selecting
    the workload; the remaining fields parameterize it and all have the
    CLI's defaults.  Two optional fields apply to every kind:

    - ["id"] — echoed verbatim in the result envelope;
    - ["budget_steps"] — a per-job {!Nxc_guard.Budget} cap (policy
      [Degrade], like the CLI default).

    The kinds and their fields:

    {v
 {"kind":"synth", "expr":"x1x2 + x1'x2'", "cover_backend":"bnb"}
 {"kind":"flow",  "expr":"x1 ^ x2", "n":24, "density":0.05, "seed":42}
 {"kind":"bist",  "rows":8, "cols":8}
 {"kind":"bism",  "n":32, "k":12, "density":0.05, "seed":42,
                  "trials":20, "scheme":"hybrid"}
 {"kind":"yield", "n":32, "density":0.05, "seed":1, "trials":40}
 {"kind":"repair","rows":12, "cols":12, "spare_rows":2, "spare_cols":2,
                  "density":0.05, "seed":42, "trials":20, "mode":"exact"}
    v}

    Parsing is strict — unknown fields, wrong types and out-of-range
    values are [`Invalid_input] errors (CLI exit-code 3), pinned by
    [test/cram/service.t]. *)

type spec =
  | Synth of {
      expr : string;
      cover_backend : string;
          (** ["bnb"] (default) or ["sat"] — the exact set-cover engine
              this job's minimizer runs, {!Nxc_logic.Qm.Bnb} or
              {!Nxc_logic.Qm.Sat} *)
    }
  | Flow of { expr : string; n : int; density : float; seed : int }
  | Bist of { rows : int; cols : int }
  | Bism of {
      n : int;
      k : int;
      density : float;
      seed : int;
      trials : int;
      scheme : string;
          (** ["blind"], ["greedy"], ["hybrid"] or ["sat"] (exact
              decision via {!Nxc_reliability.Sat_assign}) *)
    }
  | Yield of { n : int; density : float; seed : int; trials : int }
  | Repair of {
      rows : int;  (** logical array dimensions; the fabricated chip is
                       [(rows+spare_rows) x (cols+spare_cols)] *)
      cols : int;
      spare_rows : int;  (** non-negative spare budgets *)
      spare_cols : int;
      density : float;
      seed : int;
      trials : int;
      mode : string;  (** ["exact"] or ["greedy"] *)
    }

type t = { id : string option; budget_steps : int option; spec : spec }

val kind : t -> string
(** The spec's ["kind"] string. *)

val validate : spec -> (unit, Nxc_guard.Error.t) result
(** The range checks (positive sizes and trials, non-negative spares,
    density in [[0, 1]], known scheme/mode/backend, [k <= n]) that both
    {!of_json} and the CLI subcommands apply. *)

val of_json : Nxc_obs.Json.t -> (t, Nxc_guard.Error.t) result
(** Field and type checks, then {!validate}. *)

val of_line : string -> (t, Nxc_guard.Error.t) result
(** Parse one JSON text line through {!of_json}. *)

val to_json : t -> Nxc_obs.Json.t
(** Canonical re-serialization: fields in a fixed order, defaults made
    explicit, [id] omitted when absent. *)

val cache_key : t -> string
(** Canonical content key for the non-[Synth] kinds: the spec (with
    defaults expanded, [id] stripped, [budget_steps] kept — a budget
    can change a degraded result) rendered as one JSON line.  Jobs
    differing only in [id] share a key.  [Synth] jobs are keyed by
    their truth table instead, and a [Flow] job run under the SAT cover
    backend by this key plus [":sat"] — see {!Engine}. *)
