(** Run metadata, so exported artifacts are self-describing.

    The CSV export directory's [meta.json] embeds this capture: the git
    revision that produced the numbers, the host parallelism, the pool
    size used, the trace-seed fingerprint, and when the run happened. *)

type t = {
  git_sha : string option;  (** [None] outside a git checkout *)
  host_cores : int;  (** [Domain.recommended_domain_count ()] *)
  jobs : int;  (** domain-pool size the run used *)
  seed : string;  (** trace-seed fingerprint, {!spec_seed_fingerprint} *)
  timestamp_utc : string;  (** ISO-8601, UTC *)
  unix_time_s : float;
  obs_enabled : bool;
      (** whether the ambient metrics registry was on for this run *)
}

val capture : unit -> t
(** [jobs] is the size of the shared {!Domain_pool.get} pool (so
    [--jobs] is what it records). Shells out to [git rev-parse HEAD] and
    tolerates its absence. *)

val spec_seed_fingerprint : unit -> string
(** XOR of the baked SPEC-profile root seeds, in hex. *)

val to_json_fields : t -> string
(** The metadata as JSON object fields (no braces), for splicing into a
    larger object. *)
