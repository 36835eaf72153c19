(** Stage span tracing.

    A span is one named wall-clock interval — a pipeline stage
    ([generate], [simulate], [static-analysis], [cache-lookup],
    [encode], [decode]) or a Domain_pool task — carrying the GC
    [quick_stat] deltas observed across it and free-form metadata
    (benchmark, scheme, ...). Spans land in a process-wide collector
    guarded by the same opt-in discipline as the metrics {!Registry}:
    with the collector off, {!with_span} is one atomic load and a
    direct call. *)

type span = {
  sp_name : string;
  sp_track : string;  (** recording thread: "main", "worker3", ... *)
  sp_start_ns : int;  (** relative to the collector's creation *)
  sp_dur_ns : int;
  sp_minor_words : float;
  sp_major_words : float;
  sp_minor_collections : int;
  sp_major_collections : int;
  sp_meta : (string * string) list;
}

type t

val create : unit -> t
val record : t -> span -> unit
val spans : t -> span list
(** Chronological (recording order). *)

val set_track : string -> unit
(** Name the calling domain's track (domain-local; Domain_pool workers
    call this once at startup). *)

val track : unit -> string

val ambient : unit -> t option
val is_enabled : unit -> bool
val enable : unit -> t
val disable : unit -> unit

val with_span : ?meta:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] and records one span around it in the
    ambient collector; when collection is off it is just [f ()].
    Exceptions propagate unchanged (the span is dropped). *)

type stage_stats = {
  st_name : string;
  st_count : int;
  st_total_ns : int;
  st_max_ns : int;
  st_minor_words : float;
  st_major_words : float;
}

val by_stage : span list -> stage_stats list
(** Aggregate by span name, sorted by name. *)
