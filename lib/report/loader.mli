(** Readers for the artifacts the toolchain writes to disk.

    Everything here is read-only and dependency-free: metrics JSON
    ([hc_sim --metrics-out], [hc_experiments] dirs), [meta.json],
    interval CSVs, and Chrome trace files (metadata only). The loaders
    normalise all of them into the same flat [(dotted_path, float)] view
    so the diff engine and the tables need a single code path. *)

val read_file : string -> (string, string) result
(** Whole file as a string; [Error] carries the [Sys_error] message. *)

val load_json : string -> (Json.t, string) result
(** {!Json.of_file} — re-exported so callers only need [Loader]. *)

val schema : Json.t -> int option
(** Top-level ["schema"] field, when present and integral. *)

val numeric_leaves : Json.t -> (string * float) list
(** Every numeric leaf of the document, depth-first in source order,
    keyed by dotted path ("ipc", "counters.copy_dispatched"). Array
    elements get 0-based numeric segments ("traceEvents.0.ts"). Booleans,
    strings and nulls are skipped. *)

val ring_info : Json.t -> (int * int) option
(** [(pushed, dropped)] from a Chrome trace's ["otherData"] block, when
    the writer recorded ring statistics. [hc_report] uses this to warn
    that a trace is a truncated window rather than the whole run. *)

(** Interval CSVs ([Hc_core.Telemetry.write_intervals_csv]), parsed
    column-major. *)
type csv = {
  csv_path : string;
  header : string list;
  columns : float array list;  (** one array per header entry, row order *)
}

val load_csv : string -> (csv, string) result
(** Parses header + numeric rows. Ragged or non-numeric rows are
    an [Error] naming the line. *)

val column : csv -> string -> float array option

val rows : csv -> int
