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
      actually needed the wide datapath squashes itself and every younger
      uop of the helper backend (the paper's flushing scheme), resteers
      them into the wide backend in their ROB slots and stalls the
      frontend for the flush penalty;
    - IR splitting: four chained one-tick slices in the helper plus four
      prefetch copies of the result back to the wide cluster;
    - branch mispredictions (trace ground truth) as frontend refill
      bubbles; memory hierarchy latencies from per-uop miss ground truth.

    The simulator never reads ground-truth widths to make decisions — only
    to detect mispredictions at execute/writeback, as the hardware's
    detectors would. *)

type decide = Steer.decide
(** A steering policy (see {!Hc_steering.Policy} for the paper's stack).
    It must be a pure function of its context and trace index: the
    simulator jumps over quiet ticks, and while a dispatch stalls it
    asks the policy again only to learn whether the stalled uop's
    verdict would change, so a policy that kept state of its own, or
    read anything but the context, could see fewer calls than ticks.
    Every library policy is pure. *)

type stuck_operand = {
  done_ : bool;  (** its producer completed *)
  avail_wide : int;
  avail_narrow : int;
      (** the tick it is readable in each cluster; [max_int] = never *)
}

type stuck_head = {
  trace_idx : int;
  op : Hc_isa.Opcode.t;
  cluster : Config.cluster;
  operands : stuck_operand list;
}

type deadlock = {
  tick : int;  (** the quiet tick after which no event was left *)
  head : stuck_head option;  (** the ROB head; [None] = empty ROB *)
  rob : int;  (** ROB occupancy *)
  iq_wide : int;  (** issue-queue lengths *)
  iq_narrow : int;
}

exception Deadlock of deadlock
(** An unfinished run with no event left that could change the machine:
    nothing is in flight, no stall will end and the stalled uop's
    steering verdict is settled. Raised at once, at the tick it
    happens; a printer is registered, so an uncaught one prints
    {!deadlock_message}. *)

val deadlock_message : deadlock -> string

val run :
  ?sink:Hc_obs.Sink.t ->
  ?accounting:bool ->
  cfg:Config.t ->
  decide:decide ->
  scheme_name:string ->
  Hc_trace.Trace.t ->
  Metrics.t
(** Simulate a whole trace to completion and return its metrics.
    Ticks in which nothing can happen are not stepped one by one: after
    a tick in which nothing completed, committed, dispatched or issued,
    the run jumps to the next tick at which anything can change and
    books the rounds in between in closed form (DESIGN.md, "Event
    horizon"). The result is identical to stepping every tick.

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

    When the ambient {!Hc_obs.Registry} is on, a finished run adds
    itself to [hc_sim_runs_total], [hc_uops_retired_total] and the
    [hc_sim_run_ticks] histogram, its two work counts to
    [hc_issue_visits_total] (ready-list entries the issue rounds read)
    and [hc_wakeup_touches_total] (waiting consumers a wakeup reached),
    and each of its [sink] intervals to
    the [hc_nready_w2n_per_interval]/[hc_nready_n2w_per_interval]
    histograms; with it off, this costs one atomic load per run.
    @raise Invalid_argument on an invalid [cfg].
    @raise Deadlock if the machine wedges. *)

module For_testing : sig
  val run_ready_checked :
    ?sink:Hc_obs.Sink.t ->
    ?accounting:bool ->
    cfg:Config.t ->
    decide:decide ->
    scheme_name:string ->
    Hc_trace.Trace.t ->
    Metrics.t
  (** {!run}, also checking before every issue round that each issue
      queue's ready list holds exactly the occupants a full walk of the
      queue finds ready (or dead copies to take out), that each waiting
      node counts the dependences it cannot read, and that the queue's
      occupant, ready, capable and dead-copy counts are the walk's; with
      [accounting], also checking in every issue round with
      an idle slot that the incrementally kept blocked-occupant counts
      equal a full walk of that issue queue.
      @raise Failure at the first difference, naming the tick, the lane
      and the node or both sets of counts. *)

  val run_unskipped :
    ?sink:Hc_obs.Sink.t ->
    ?accounting:bool ->
    cfg:Config.t ->
    decide:decide ->
    scheme_name:string ->
    Hc_trace.Trace.t ->
    Metrics.t
  (** {!run} stepping every tick: the same loop with the jump over
      quiet ticks turned off, the reference it must equal. *)

  val run_dropping_completion :
    trace_idx:int ->
    cfg:Config.t ->
    decide:decide ->
    scheme_name:string ->
    Hc_trace.Trace.t ->
    Metrics.t
  (** {!run} with the next completion scheduled for the uop at
      [trace_idx] never delivered, which wedges the machine.
      @raise Deadlock once nothing else is left to happen. *)

  val run_poisoned :
    ?sink:Hc_obs.Sink.t ->
    ?accounting:bool ->
    cfg:Config.t ->
    decide:decide ->
    scheme_name:string ->
    Hc_trace.Trace.t ->
    Metrics.t
  (** {!run}, scribbling over every node and value record as it goes
      back to its pool, so a read of a freed record shows up as a
      changed result. *)

  val run_growing_pools :
    ?sink:Hc_obs.Sink.t ->
    ?accounting:bool ->
    cfg:Config.t ->
    decide:decide ->
    scheme_name:string ->
    Hc_trace.Trace.t ->
    Metrics.t
  (** {!run} with the node and value pools restarted at one record
      each, so the run grows both while their slots are linked from the
      queues, the ROB, the wheel and the rename table. Later runs grow
      them back to their usual size. *)

  val arena_high_water : unit -> int * int * int
  (** The (node, value, consumer edge) records the calling domain's last
      run handed out: each pool's high-water, since freed records are
      reused before new ones. *)
end
