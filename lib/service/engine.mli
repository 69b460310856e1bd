(** The job engine: parse JSONL job lines into {!Job} specs, resolve
    them against a {!Cache}, compute misses on a {!Nxc_par.Pool}, and
    emit one JSON result envelope per job.  Batches and the {!Stream}
    both go through {!run_lines}, so every job is validated once, by
    {!Job.of_line}.

    {2 Envelope}

    Every job produces exactly one line:

    {v
 {"id":"j1","kind":"synth","status":"ok","exit":0,"result":{...}}
 {"id":null,"kind":null,"status":"error","exit":3,"error":"invalid input: ..."}
    v}

    ["exit"] is the job's CLI exit-code equivalent (0 ok, 1 internal,
    3 invalid input, 4 budget exhausted under a [Fail] policy, 5
    non-functional flow).  Envelopes are {e deterministic}: they carry
    no wall-clock times and no cache provenance, so a warm run, a cold
    run and any [--jobs N] produce byte-identical output for the same
    job list.  Timings and hit/miss traffic are reported through
    {!Nxc_obs} spans and metrics instead ([service.*],
    [service.cache.*]).

    {2 Caching}

    [Synth] jobs are keyed by the exact truth table of their parsed
    function, normalized for output phase only ({!Nxc_logic.Npn.canonical}
    and {!Nxc_logic.Npn.table_key} plus a phase tag).  The cache stores
    the minimized covers of the function and its dual in the function's
    own input coordinates, and a hit re-verifies them against the
    request before rendering.  A key depends only on the function it
    keys, so an envelope never depends on which other spellings filled
    the cache.  The other kinds are seeded simulations; their whole
    result envelope payload is cached under the canonical spec string
    ({!Job.cache_key}).  A synth job's covering engine is the one its
    own ["cover_backend"] names (default [bnb]), and a ["sat"] job's key
    gets a [":sat"] suffix, so the two engines never share an entry.
    Every other kind, [Flow] included, minimizes with the default
    engine and is keyed by {!Job.cache_key} alone.

    {2 Determinism under parallelism}

    See {!run_lines}: all cache reads and writes happen on the calling
    domain in job order, so envelopes never depend on [--jobs N]. *)

type outcome = {
  envelope : Nxc_obs.Json.t;  (** the result line *)
  exit_code : int;  (** the envelope's ["exit"] field *)
  cached : bool;  (** resolved from the cache (not part of the envelope) *)
}

val run_lines :
  ?pool:Nxc_par.Pool.t -> ?cache:Cache.t -> string list -> outcome list
(** Process a batch of JSONL job lines, one outcome per line in order.
    A line {!Job.of_line} rejects becomes an error envelope (exit 3)
    rather than aborting the batch.  Without [?cache] a fresh in-memory
    cache still deduplicates within the batch.

    The batch runs in four passes.  Planning (parse, validate and
    keying, pure) runs on the pool in job order; leader marking is
    sequential: the {e first} job of each key group (not already
    cached) becomes the group's single computing leader, and leaders'
    computes are dispatched to the pool.  The cache pass then runs on
    the calling domain in job order — every read and write happens
    there, so which job computes and which job hits is a function of
    the job list and the cache contents, never of scheduling.  Finally
    rendering (a pure function of the cache value and the request's own
    function, including the hit-path re-verification) runs on the
    pool, and envelopes are emitted sequentially in job order. *)

val batch_exit : outcome list -> int
(** The batch's process exit code: [0] when every job's ["exit"] is
    [0], otherwise the first non-zero one in job order. *)

(** Pipelined streaming for the [serve] loop: jobs are read ahead of
    completion into a bounded in-flight window and resolved window-wise
    through {!run_lines} on the pool, with outcomes returned strictly
    in input order.

    {b Response memo.}  Envelopes are deterministic functions of the
    request line, so the stream keeps a line-level LRU memo of recent
    responses: an exact repeat is answered without planning, keying or
    rendering ([service.stream.memo_hits] / [memo_misses]); it still
    counts under [service.jobs].

    {b Deadline admission.}  With [?deadline_ms] set, each pushed job
    is admitted only if the queue ahead of it is expected to drain in
    time ([EWMA job time × queue depth < deadline]).  A rejected job
    receives a normal error envelope with the budget-exhaustion
    contract (["exit": 4], label ["admission"]), emitted in input
    order; rejections count under [service.admission.rejected].
    [--job-deadline-ms 0] therefore deterministically rejects every
    job.

    {b Backpressure.}  Every admitted job charges the ambient
    {!Nxc_guard.Budget} one step.  On exhaustion a [Fail]-policy budget
    rejects the job with its own budget error; a [Degrade]-policy
    budget records [guard.degrade.stream] and shrinks the window to 1
    (fully synchronous, no read-ahead). *)
module Stream : sig
  type t

  val create :
    ?pool:Nxc_par.Pool.t ->
    ?cache:Cache.t ->
    ?window:int ->
    ?deadline_ms:float ->
    unit ->
    t
  (** [window] defaults to [4 × slots] of [pool] (4 without a pool) and
      is clamped to [>= 1]; the response memo keeps the 1024 most
      recently used lines.  Without [?deadline_ms] every job is
      admitted. *)

  val window : t -> int

  val pending : t -> int
  (** Entries buffered and not yet flushed (admitted + rejected). *)

  val push : t -> string -> outcome list
  (** Enqueue one request line.  Returns [[]] while the window fills,
      or everything pending (in input order) when pushing this line
      filled the window — or when nothing is queued at all (a rejected
      job with an empty queue is answered immediately). *)

  val flush : t -> outcome list
  (** Resolve and return everything pending (in input order) — the
      end-of-input drain, also used before serving [__stats__]. *)
end
