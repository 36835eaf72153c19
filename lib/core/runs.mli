(** Simulation-run cache shared by the experiment suite.

    Experiments reuse each other's runs (Fig 6 and Fig 7 both need the
    8_8_8 runs; Fig 8 adds +BR; …), so traces and finished metrics are
    generated once per (benchmark, scheme) and memoized for the process
    lifetime. Everything is deterministic: same [length] in, same numbers
    out. *)

type t

val create :
  ?length:int ->
  ?telemetry:Telemetry.config ->
  ?cache:Artifact_cache.t ->
  ?progress:Telemetry.progress ->
  unit ->
  t
(** [length] is the per-benchmark trace length (default [30_000] uops,
    generated with the paper's slice-skipping methodology).

    [telemetry] attaches an interval sampler to every simulation this
    cache executes: each (scheme, benchmark) cell leaves
    [<scheme>__<benchmark>.intervals.csv] and
    [<scheme>__<benchmark>.metrics.json] in [telemetry.dir] (created,
    with parents, up front); the metrics JSON carries the ["stall"]
    object like every other run of this cache. Metrics are
    bit-identical with or without telemetry, and the parallel fan-out
    writes distinct files per cell, so the option composes with
    {!ensure}.

    [cache] attaches the on-disk {!Artifact_cache}: traces load from
    (and publish to) their content-addressed binary entries instead of
    being regenerated, and finished run metrics reload from their cached
    JSON — warm sweeps skip generation {e and} simulation entirely while
    returning bit-identical metrics (see [test/test_cache.ml]). With
    [telemetry] also set, the metrics cache is bypassed (every run must
    produce its telemetry artifacts) but the trace cache still applies.

    [progress] attaches a live {!Telemetry.progress} reporter: every
    {!ensure} batch announces its missing cells up front and ticks the
    reporter as each resolves — warm metrics-cache merges tick as
    cached, cold simulations tick on completion (from pool workers). *)

val length : t -> int

val trace : t -> Hc_trace.Profile.t -> Hc_trace.Trace.t
(** Memoized sliced trace for a profile (keyed by profile name). *)

val static_info : t -> Hc_trace.Trace.t -> Hc_analysis.Static.bidir
(** Memoized static width analysis of a trace (keyed by trace name,
    default 8-bit narrow cut): the bidirectional record, whose [.base]
    field is the forward pass — one memoized analysis serves both oracle
    schemes and both exported bounds. Computed once on the calling
    domain; the result is shared read-only with parallel simulation
    workers. *)

val ensure_traces : t -> Hc_trace.Profile.t list -> unit
(** Generate every not-yet-memoized trace in the list, fanning the
    generation out across the shared {!Domain_pool}. Each profile's trace
    is generated exactly once from its own seeded RNG, so the result is
    bit-identical to on-demand sequential generation. *)

val ensure : t -> (string * Hc_trace.Profile.t) list -> unit
(** Batch-fill the run cache: generate any missing traces, then simulate
    every not-yet-memoized (scheme, profile) cell in parallel across the
    shared {!Domain_pool} ([HC_JOBS] / [--jobs] workers) and merge the
    results back into the memo tables keyed by (scheme, profile name).
    Every worker gets its own pipeline state over the shared read-only
    trace, so the merged metrics are bit-identical to the sequential
    path (see [test/test_parallel.ml]).
    @raise Not_found for an unknown scheme name, before any fan-out. *)

val ensure_spec : t -> string list -> unit
(** [ensure] over the full SPEC Int profile set for each named scheme —
    the shape every figure-level experiment needs. *)

val metrics : t -> scheme:string -> Hc_trace.Profile.t -> Hc_sim.Metrics.t
(** Memoized simulation of a profile under a named scheme (names from
    {!Hc_steering.Policy.stack}: ["baseline"], ["8_8_8"], ["+BR"], …).
    The pseudo-schemes ["static_888"] and ["static_bidir"] are also
    accepted (here and in {!ensure}): the 8_8_8 machine steered by
    {!Hc_steering.Policy.static_oracle} over the trace's forward
    (respectively bidirectional) static width-inference proof — both
    zero-recovery steering bounds by construction. Every returned
    metrics record carries
    [static_narrow_bound = Some (static_info _ tr).base.steerable_count],
    [static_bidir_bound = Some (static_info _ tr).bidir_steerable_count]
    and the run's cycle-accounting rows in [counts], with [stall] set
    (every simulation runs with [~accounting:true], which leaves the
    other counts bit-identical; cached entries round-trip them exactly).
    @raise Not_found for an unknown scheme name. *)

val speedup_pct : t -> scheme:string -> Hc_trace.Profile.t -> float
(** Performance increase of [scheme] over ["baseline"] for one profile. *)

val resolve_policy :
  static:Hc_analysis.Static.bidir ->
  scheme:string ->
  Hc_sim.Config.t * Hc_sim.Pipeline.decide
(** The (config, steering policy) a scheme name denotes: the matching
    entry of [Config.scheme_stack], or — for the ["static_888"] /
    ["static_bidir"] pseudo-schemes — the 8_8_8 machine steered by
    {!Hc_steering.Policy.static_oracle} over the forward (respectively
    bidirectional) proof in [static]. For callers that drive
    {!Hc_sim.Pipeline.run} directly, outside the memo and the cache.
    @raise Not_found for an unknown scheme name. *)

val spec_profiles : Hc_trace.Profile.t list
(** The 12 SPEC Int 2000 profiles, in paper order. *)
