(** The cycle-level clustered-processor simulator.

    Trace-driven, out-of-order, with a shared frontend and two backends:
    the wide 32-bit cluster and the 8-bit helper cluster clocked twice as
    fast (§2). The global clock counts helper-cluster fast ticks; wide
    structures (frontend, wide issue/commit) act on even ticks.

    Modeled mechanisms, each with its cost:
    - steering at rename via a policy callback that sees only
      architectural/predicted information ({!Steer.ctx});
    - demand copy uops (Canal et al.): occupy an issue-queue slot and an
      issue slot in the {e producer's} cluster and take an inter-cluster
      hop before the value is usable in the consumer's register file;
    - copy prefetching (CP): predictor-triggered copies injected at the
      producer's dispatch;
    - load replication (LR): loads whose predicted value width is narrow
      write both register files, suppressed at fill time by the width
      detectors when the value turns out wide;
    - fatal width mispredictions: a narrow-steered uop whose execution
      actually needed the wide datapath squashes itself and {e all} younger
      in-flight uops (the paper's flushing scheme), rolls the rename table
      back, stalls the frontend and refetches — the offender forced wide;
    - IR splitting: four chained one-tick slices in the helper plus four
      prefetch copies of the result back to the wide cluster;
    - branch mispredictions (trace ground truth) as frontend refill
      bubbles; memory hierarchy latencies from per-uop miss ground truth.

    The simulator never reads ground-truth widths to make decisions — only
    to detect mispredictions at execute/writeback, as the hardware's
    detectors would. *)

type decide = Steer.decide
(** A steering policy (see {!Hc_steering.Policy} for the paper's stack). *)

val run :
  ?max_ticks:int ->
  ?sink:Hc_obs.Sink.t ->
  ?accounting:bool ->
  cfg:Config.t ->
  decide:decide ->
  scheme_name:string ->
  Hc_trace.Trace.t ->
  Metrics.t
(** Simulate a whole trace to completion and return its metrics.
    [max_ticks] (default 200 million) guards against livelock bugs — the
    simulator raises [Failure] if it is exceeded.

    [sink] attaches telemetry: per-uop lifecycle events
    (dispatch/issue/writeback/commit/squash, copies and slices, width
    flushes) into the sink's bounded ring when it traces, and an interval
    metrics time series when its sampling interval is positive. The tail
    interval is flushed at the end of the run, so
    [Hc_obs.Sample.aggregate (Sink.samples sink)] equals the returned
    metrics' dynamic counts. Observation never changes simulated
    behavior: the returned {!Metrics.t} is bit-identical with or without
    a sink.

    [accounting] (default [false]) turns on top-down cycle accounting:
    every issue round of each cluster and every commit round attributes
    its slots to the disjoint {!Accounting.category} taxonomy, counted
    in the [Stall] rows of the run's count vector, so they reach the
    returned [Metrics.counts] and every [sink] interval delta like any
    other count. [Accounting.consistent] holds exactly on both, with
    the lane widths taken from [cfg] and returned in [Metrics.stall].
    The other counts are bit-identical with or without accounting.
    @raise Invalid_argument on an invalid [cfg]. *)

module For_testing : sig
  val run_census_checked :
    ?sink:Hc_obs.Sink.t ->
    cfg:Config.t ->
    decide:decide ->
    scheme_name:string ->
    Hc_trace.Trace.t ->
    Metrics.t
  (** [run ~accounting:true], also checking in every issue round with an idle
      slot that the incrementally kept blocked-occupant counts equal a
      full walk of that issue queue.
      @raise Failure at the first difference, naming the tick, the lane
      and both sets of counts. *)
end
