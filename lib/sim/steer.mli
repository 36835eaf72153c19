(** The interface between the rename stage and a steering policy.

    At rename time the policy sees only what the hardware would see: the
    uop's rename-visible shape (pc, opcode, operand count, destination and
    flags use), the prediction tables, the rename width table (actual
    widths for already written-back producers, predictions otherwise),
    where each source value currently lives, where the last flags writer
    went, and the issue-queue occupancies.

    The type system enforces that contract: a policy names the uop by its
    trace index and reads it through the abstract {!uops} view, which has
    no accessor for the result, source values, memory address, branch
    outcome or miss flags. The pipeline discovers mispredictions at
    execute, not the policy. An oracle policy that wants ground truth
    must be handed it explicitly when it is built.

    The context is built once per simulation and every query returns an
    immediate value (packed int or bool), so a steering decision allocates
    nothing on the simulator's hot path. *)

type src_info = private int
(** Rename-time knowledge about one source operand, packed into an
    immediate int. Construct with {!src_info}, read through the
    [si_]accessors. *)

val src_info :
  narrow:bool -> known:bool -> cluster:Config.cluster option -> src_info
(** [narrow] — believed width of the operand: actual for immediates and
    written-back producers (§3.2: "the actual width is read if the
    producer instruction has already written back"), predicted otherwise.
    [known] — [true] when [narrow] is the actual width. [cluster] — the
    cluster whose register file will hold the value, when renamed. *)

val src_info_bits : narrow:bool -> known:bool -> cluster_code:int -> src_info
(** Allocation-free constructor taking the cluster as a code
    ({!cluster_code_none} / {!cluster_code_wide} / {!cluster_code_narrow})
    instead of an option — the pipeline's rename stage uses this. *)

val cluster_code_none : int
val cluster_code_wide : int
val cluster_code_narrow : int

val si_narrow : src_info -> bool
val si_known : src_info -> bool
val si_cluster : src_info -> Config.cluster option

type uops
(** The trace being steered, rename-visible fields only. *)

val uops_of_soa : Hc_isa.Uop_soa.t -> uops
(** The view over a trace's columns. There is no way back: a policy
    holding a [uops] cannot reach the columns' ground truth. *)

type ctx = {
  cfg : Config.t;
  preds : Hc_predictors.Bundle.t;
  uops : uops;  (** the trace, for the per-uop accessors below *)
  source_info : int -> int -> src_info;
      (** [source_info i k]: rename-time knowledge about operand [k]
          (0-based, in operand order) of the uop at trace index [i].
          Raises [Invalid_argument] when [i] is outside the trace or [k]
          outside [0 .. nsrcs - 1]. *)
  flags_in_narrow : unit -> bool;
      (** did the most recent flags-writing uop steer to the helper
          cluster (the BR condition of §3.3) *)
  occupancy_lt : Config.cluster -> float -> bool;
      (** is the IQ occupancy fraction (len / iq_size, in [0,1]) strictly
          below the bound — a threshold test rather than a float return,
          so the query never boxes *)
  ready_backlog : Config.cluster -> int;
      (** NREADY signal from the most recent issue round of that cluster:
          how many ready uops could not issue for lack of slots *)
  backlog_ewma_gt : Config.cluster -> float -> bool;
      (** is the exponentially smoothed ready backlog (which
          distinguishes sustained congestion from a single-cycle blip)
          strictly above the bound *)
  rob_occupancy_lt : float -> bool;
      (** is the reorder-buffer fill fraction strictly below the bound;
          near 1.0 the machine is commit-blocked (typically on memory)
          and issue-bandwidth tricks like IR splitting cannot help *)
}

(** {1 Rename-visible uop fields}

    Each takes the trace index the policy was called with, and raises
    [Invalid_argument] on an index outside the trace. *)

val id : ctx -> int -> int
(** Dynamic sequence number (the ROB order), dense within a trace. *)

val pc : ctx -> int -> int
val op : ctx -> int -> Hc_isa.Opcode.t
val nsrcs : ctx -> int -> int
val has_dest : ctx -> int -> bool
val writes_flags : ctx -> int -> bool
val reads_flags : ctx -> int -> bool

type reason =
  | R888  (** steered by the all-narrow rule *)
  | Rbr  (** flag-dependent branch *)
  | Rcr  (** carry width prediction *)
  | Rir  (** split for imbalance reduction *)
  | Rlive
      (** steered on a static dead-width proof (the [static_bidir]
          oracle): sources/result may be genuinely wide, but every bit
          above the narrow cut is proven dead, so narrow execution is
          exact on all observable values. Proof-carried — the pipeline
          must not ground-truth-check it the way it checks [R888]. *)

type decision =
  | Steer of Config.cluster
  | Steer_narrow of reason
  | Split  (** IR: crack into four chained 8-bit slices in the helper *)

val steer_wide : decision
(** Preallocated [Steer Config.Wide]; policies return these shared
    values so a verdict never allocates. *)

val steer_narrow_cluster : decision  (** [Steer Config.Narrow] *)

val steer_888 : decision  (** [Steer_narrow R888] *)

val steer_br : decision  (** [Steer_narrow Rbr] *)

val steer_cr : decision  (** [Steer_narrow Rcr] *)

val steer_ir : decision  (** [Steer_narrow Rir] *)

val steer_live : decision  (** [Steer_narrow Rlive] *)

val steer_narrow_of : reason -> decision
(** The shared [Steer_narrow] value for a reason. *)

type decide = ctx -> int -> decision
(** A steering policy as the rename stage calls it, on the trace index
    of the uop being renamed. [Pipeline.run] takes any [decide]; the
    paper's stack lives in [Hc_steering.Policy], and oracle policies
    (e.g. the static-width bound) are just other values of this type. *)

val reason_to_string : reason -> string
(** Short lowercase tag ("888", "br", "cr", "ir", "live") used by the
    attribution tables and telemetry artifacts. *)

val pp_decision : Format.formatter -> decision -> unit
