(** Structured JSONL event log.

    One self-describing, minified JSON object per line — each line
    parses on its own with [Hc_report.Json]'s strict parser, so the log
    streams, tails, greps and survives truncation at any line boundary.
    Span records carry [{"schema":1,"kind":"span",...}] with the wall
    interval, GC deltas and metadata. *)

val schema : int

val escape : string -> string
(** The body of a JSON string literal: quote, backslash and newline
    backslash-escaped, other control bytes as [\u00XX], every other
    byte verbatim. Shared by this log, {!Chrome_trace} and the metrics
    JSON. *)

val span_to_json : Span.span -> string
(** One minified JSON object, no trailing newline. *)

val event_to_json : name:string -> fields:(string * string) list -> string
(** Generic event record; [fields] values must already be valid JSON
    lexemes (numbers, quoted strings, ...). *)

type t

val create : path:string -> t
val log_span : t -> Span.span -> unit
val log_event : t -> name:string -> fields:(string * string) list -> unit
(** Writers are serialized by an internal mutex — safe from pool
    workers. *)

val lines : t -> int
val close : t -> unit

val write_spans : path:string -> Span.span list -> string
(** Write a whole span list as one JSONL file; returns [path]. *)
