(** Prometheus text exposition (format 0.0.4) for {!Registry} scrapes.

    Counters and gauges expose one sample line; histograms expose the
    standard cumulative [_bucket]/[_sum]/[_count] triple whose ["le"]
    edges are the registry's power-of-two bucket bounds (plus the
    mandatory [+Inf]). [# HELP]/[# TYPE] headers are emitted once per
    metric family. The output is deterministic because scrapes are. *)

val to_string : Registry.sample list -> string
val write : path:string -> Registry.sample list -> string
(** Returns [path]. *)

(** {2 Parsing} (for [hc_report validate --prom] and [hc_report diff]) *)

type entry = {
  e_name : string;  (** includes histogram suffixes like [_bucket] *)
  e_labels : (string * string) list;  (** source order, values unescaped *)
  e_value : float;
}

val parse : string -> (entry list, string) result
(** Strict line-oriented parse of an exposition dump: every non-comment,
    non-blank line must be a well-formed sample ([name{labels} value
    [timestamp]]); [# HELP]/[# TYPE] lines are validated structurally.
    The error message names the offending 1-based line. *)

val series_key : entry -> string
(** A sample's series identity, spelled as in the exposition:
    [name{k="v",...}] with the labels sorted by name and their values
    escaped, or the bare name for a label-free sample. Distinct samples
    of one scrape have distinct keys. *)

val of_file : string -> (entry list, string) result
(** {!parse} on a file's contents; the error names the file and line. *)
