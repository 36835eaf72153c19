(** Top-down cycle accounting.

    Every round of each issue stage and of the commit stage attributes
    its slots to a disjoint taxonomy, so per lane

    {v sum over categories = stage width x rounds accounted v}

    holds exactly — the same no-tolerance partition discipline as the
    steering-attribution counters. The counts are the [Stall] rows of the
    run's count vector ({!Hc_obs.Counts}): a run's totals are
    [Metrics.counts] and an interval's are a {!Hc_obs.Sample}'s deltas.
    The classification of blocked slots lives in {!Pipeline} (it needs
    the node internals); this module names the rows, checks the
    invariant on any count vector and writes the serialized forms. *)

(** One slot, one owner. *)
type category =
  | Issued  (** the slot did useful work (issued / committed a uop) *)
  | Frontend  (** starved: fetch stalled (branch penalty, TC miss) *)
  | Dispatch  (** dispatch blocked on a full ROB / issue queue / regfile *)
  | Wait_operands
      (** occupants wait on in-flight producers (or the ROB head is
          still executing a non-memory uop) *)
  | Wait_copy  (** occupants wait on inter-cluster communication *)
  | Memory  (** blocked behind an in-flight load, or a full MOB *)
  | Width_recovery  (** wide side draining a width-violation flush *)
  | Drained  (** narrow side emptied by a width-violation flush *)
  | Idle  (** nothing ready, no stall source to blame *)

val ncat : int
val cat_index : category -> int
val cat_name : category -> string
(** Its column name in {!Hc_obs.Counts.stall_columns}. *)

val categories : category list  (** in {!cat_index} order *)

val lane_wide : int
val lane_narrow : int
val lane_commit : int
val nlanes : int
val lane_name : int -> string
(** Its name in {!Hc_obs.Counts.stall_lanes}. *)

type widths = { issue_width : int; commit_width : int }
(** The stage widths of an accounted run: what the partition multiplies
    each lane's rounds by. *)

val lane_width : widths -> int -> int

(** {1 The stall rows of a count vector} *)

val add : int array -> lane:int -> category -> int -> unit
val rounds_add : int array -> lane:int -> int -> unit
(** Close [n] stage rounds: adds [n] to the lane's round count. The
    pipeline calls {!add} for exactly [width] slots per round. *)

val get : int array -> lane:int -> category -> int
val rounds : int array -> lane:int -> int
val lane_sum : int array -> int -> int

val share_pct : int array -> lane:int -> category -> float
(** Category share of the lane's accounted slots, in percent. *)

val consistent : widths -> int array -> bool
(** The partition invariant, exact per lane, on a run's count vector or
    (by linearity) on any interval delta of it. *)

val csv_header : string
val csv_row : t_start:int -> t_end:int -> int array -> string
(** One stall-CSV row: the interval bounds, then every stall row of the
    vector in declaration order. *)

val json_fragment : widths -> int array -> string
(** The ["stall"] object embedded in [Metrics.to_json] (schema 4):
    widths, then per lane the round count and every category count. *)
