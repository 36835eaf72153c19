(** A telemetry sink: where the pipeline's instrumentation points send
    their data when observability is on.

    The pipeline holds a [Sink.t option]; with [None] every
    instrumentation point is a single match on an immutable field and the
    hot path allocates nothing. With a sink attached, {!emit} pushes
    lifecycle events into a bounded {!Ring} (when [tracing]) and
    {!sample} appends interval deltas to the metrics time series (when
    [interval > 0]). One sink belongs to one pipeline run; it is not
    thread-safe and never shared across domains. *)

type t

val create : ?ring_capacity:int -> ?interval:int -> tracing:bool -> unit -> t
(** [tracing] allocates the event ring ([ring_capacity] events, default
    65536). [interval] (ticks, default 0 = off) arms the interval
    sampler; the pipeline drives the actual sampling cadence. *)

val tracing : t -> bool
val interval : t -> int

val emit : t -> Event.t -> unit
(** No-op when the sink was created without [tracing]. *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val events_dropped : t -> int
(** Events overwritten by ring wrap-around. *)

val events_pushed : t -> int

val sample : t -> tick:int -> iq_wide:int -> iq_narrow:int -> rob:int -> int array -> unit
(** Close the open interval at [tick] with the cumulative count vector
    (by {!Counts} id); the sink stores the delta against the previous
    snapshot and keeps its own copy, so the caller may go on mutating
    the vector. Ignored when [tick] has not advanced past the previous
    snapshot. *)

val samples : t -> Sample.t list
(** Chronological interval series. *)

val sample_count : t -> int

val summary : t -> string
(** One-line sink summary: events pushed/dropped and sample count. *)

val dropped_warning : t -> string option
(** A human-readable warning when ring wrap-around dropped events
    ([None] when the trace window is complete). *)
