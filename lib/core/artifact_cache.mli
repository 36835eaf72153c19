(** Content-addressed on-disk cache for trace and run artifacts.

    Generating a 30k-uop workload trace costs ~1.5 s; simulating it costs
    milliseconds. Large sweeps therefore spend nearly all their wall time
    regenerating inputs they have generated before. This cache persists
    the expensive artifacts across processes:

    - {e traces} as {!Hc_trace.Codec} binary blobs under
      [<root>/traces/<digest>.hct];
    - {e run metrics} as the JSON [Hc_sim.Metrics.to_json] emits
      (schema {!metrics_schema}), under [<root>/runs/<digest>.json].

    Keys are digests of (profile fingerprint — which includes the
    generator seed —, trace length, codec schema version, and for runs
    the scheme name), so a change to any input lands on a different key
    and stale entries are simply never addressed.

    Guarantees:

    - {b atomic publish}: entries are written to a unique temp file and
      [rename]d into place, so concurrent {!Domain_pool} workers (or
      concurrent processes on the same filesystem) never observe a
      partial entry;
    - {b self-healing}: an entry that fails its CRC / parse / byte-exact
      re-serialization check is deleted and treated as a miss — the
      caller regenerates and republishes;
    - {b bit-identical warm reads}: a metrics entry is only returned if
      re-serializing the decoded record reproduces the stored bytes
      exactly, so warm metrics cannot drift from cold ones. *)

type t

val metrics_schema : int
(** The ["schema"] of the metrics JSON this build writes
    ([Hc_sim.Metrics.schema]); it is part of every run key, and a
    stored entry of another schema is not served. *)

val create : ?root:string -> unit -> t
(** [root] defaults to [$HC_CACHE_DIR] if set and non-empty, else
    ["_hc_cache"]. The directory is created lazily on first store. *)

val of_cli : string option -> t option
(** Resolve the [--cache-dir] CLI convention: [Some "none"] disables the
    cache, [Some dir] uses [dir], [None] falls back to [$HC_CACHE_DIR]
    (where the value ["none"] also disables) or the default root. *)

val root : t -> string

(* ----- traces ----- *)

val find_trace :
  t -> profile:Hc_trace.Profile.t -> length:int -> Hc_trace.Trace.t option
(** Decode the cached trace for (profile, length), or [None] on miss.
    Corrupt entries are deleted (self-heal) and reported as a miss. *)

val store_trace :
  t -> profile:Hc_trace.Profile.t -> length:int -> Hc_trace.Trace.t -> unit

val trace_or_generate :
  t option -> profile:Hc_trace.Profile.t -> length:int -> Hc_trace.Trace.t
(** The lookup-else-generate-and-publish composition every CLI uses:
    sliced generation ({!Hc_trace.Generator.generate_sliced}) on a miss
    or with no cache ([None]). *)

(* ----- run metrics ----- *)

val find_metrics :
  t ->
  scheme:string ->
  profile:Hc_trace.Profile.t ->
  length:int ->
  Hc_sim.Metrics.t option

val store_metrics :
  t ->
  scheme:string ->
  profile:Hc_trace.Profile.t ->
  length:int ->
  Hc_sim.Metrics.t ->
  unit

(* ----- inspection, verification, eviction ----- *)

type counts = {
  trace_hits : int;
  trace_misses : int;
  run_hits : int;
  run_misses : int;
  trace_heals : int;
  run_heals : int;
}
(** In-process hit/miss/self-heal counters (atomic — workers share the
    instance). *)

val counts : t -> counts

type disk = {
  trace_entries : int;
  trace_bytes : int;
  run_entries : int;
  run_bytes : int;
}

val disk : t -> disk
(** Scan the cache root (missing directories count as empty). *)

type bad = { path : string; reason : string }

val verify : ?fix:bool -> t -> bad list
(** Decode every entry end to end: CRC + full structural decode for
    traces, parse + byte-exact re-serialization for metrics. Returns the
    entries that fail; [~fix:true] also deletes them. *)

val gc : t -> max_bytes:int -> string list
(** Evict oldest-first (mtime) until the cache fits in [max_bytes];
    returns the deleted paths. *)
