(** Content-addressed result cache with sharded LRU eviction and
    optional on-disk persistence.

    The store maps opaque string keys — truth-table keys of synth jobs
    ({!Nxc_logic.Npn.table_key}) or canonical job-spec strings ({!Job})
    — to JSON values.  It is the memory of the {!Engine}: repeated
    requests resolve here instead of re-running
    QM/Espresso/lattice search or a seeded simulation.

    {b Sharding.}  The table is split into [shards] independent LRU
    shards (default 1), each with its own mutex and recency clock,
    selected by a stable hash of the key ({!shard_of}).  The concurrent
    serve mode creates one shard per runner slot; a single-shard cache
    behaves exactly like the historical unsharded one.  Every operation
    takes only its shard's lock, so the cache is safe to touch from any
    domain.  The {!Engine} nevertheless makes every {!peek}, {!find}
    and {!add} on the calling domain (to keep hit/miss accounting
    deterministic), so today the shards see no lock contention; they
    split the traffic counters only.

    {b Traffic.}  The cache keeps no tallies of its own: lookups and
    insertions count only in the {!Nxc_obs.Metrics} registry, under
    [service.cache.hits], [service.cache.misses] and
    [service.cache.evictions].  A multi-shard cache additionally
    maintains per-shard [service.cache.shard<i>.{hits,misses,evictions}]
    counters, so shard balance is visible in [stats --prom] and the
    serve [__stats__] snapshot.  Callers that want the traffic of one
    pass read the registry counters before and after it. *)

type t

val create : ?capacity:int -> ?shards:int -> unit -> t
(** Fresh empty cache holding at most [capacity] (default 4096) entries
    split over [shards] (default 1) independent LRU shards; inserting
    into a full shard evicts that shard's least recently used entry.
    @raise Invalid_argument when [capacity <= 0] or [shards <= 0]. *)

val shards : t -> int
(** Number of shards (1 for the historical unsharded behavior). *)

val shard_of : t -> string -> int
(** [shard_of t key] is the shard index [key] routes to: a fixed
    polynomial hash of the key modulo {!shards}, stable across calls,
    runs and domains. *)

val size : t -> int
(** Entries currently stored (over all shards). *)

val peek : t -> string -> Nxc_obs.Json.t option
(** Lookup without touching recency or the hit/miss counters (used by
    the engine's planning pass). *)

val find : t -> string -> Nxc_obs.Json.t option
(** Recorded lookup: bumps recency and counts a hit or a miss. *)

val add : t -> string -> Nxc_obs.Json.t -> unit
(** Insert or overwrite, evicting the shard's LRU entry when the shard
    is full. *)

val default_path : string
(** [".nxc-cache"] — the CLI's default persistence file (gitignored). *)

(** {2 Persistence}

    One JSON object [{"k": key, "v": value}] per line, sorted by key so
    the file is deterministic for a given content.  Shards are merged
    into the one sorted stream on {!save}, so the on-disk format is
    byte-identical for every shard count. *)

val save : t -> string -> (int, Nxc_guard.Error.t) result
(** Write every entry to [path]; returns the number written. *)

val load : t -> string -> (int, Nxc_guard.Error.t) result
(** Merge the entries of [path] into the cache (no hit/miss
    accounting); returns the number loaded.  Entries are replayed
    through {!add}, so re-loading over a warm cache refreshes recency
    like a hit and the warmed cache evicts in true LRU order.  A
    missing file is [Ok 0]; a malformed line is an [`Invalid_input]
    carrying its line number. *)
