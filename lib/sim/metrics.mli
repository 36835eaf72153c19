(** Per-run simulation results.

    One {!t} is produced per (trace, configuration) simulation and carries
    every number the paper's figures are built from: IPC, steering and copy
    percentages, width-prediction outcome breakdown (Fig 5), NREADY
    imbalance (§3.7), copy-prefetch accuracy (§3.6), and the raw activity
    counters consumed by the power model. *)

type t = {
  name : string;  (** trace name *)
  scheme_name : string;
  committed : int;
  ticks : int;  (** the [tick] counter: fast ticks, 2 per wide cycle *)
  copies : int;
  steered_narrow : int;
  split_uops : int;
  steered_888 : int;
  steered_br : int;
  steered_cr : int;
  steered_ir : int;
  steered_other : int;
  wide_default : int;
  wide_demoted : int;
  wpred_correct : int;
  wpred_fatal : int;
  wpred_nonfatal : int;
  prefetch_copies : int;
  prefetch_useful : int;
  nready_w2n : int;
  nready_n2w : int;
  issued_total : int;  (** [issue_wide + issue_narrow]: used issue slots *)
  static_narrow_bound : int option;
      (** provably-narrow oracle steering bound of the trace this run
          simulated ([Hc_analysis.Static.steerable_count]): the
          helper-cluster commits a zero-recovery policy can reach. The
          pipeline itself reports [None]; [Hc_core.Runs] attaches the
          bound so exported metrics carry the headroom column. *)
  static_bidir_bound : int option;
      (** the tightened bidirectional oracle bound
          ([Hc_analysis.Static.bidir_steerable_count]): forward
          known-bits joined with backward live-bits. Always [>=]
          [static_narrow_bound] when both are present; attached by
          [Hc_core.Runs] like the forward bound. *)
  stall : Accounting.widths option;
      (** present only when the run was simulated with
          [Pipeline.run ~accounting:true]: the stage widths its
          cycle-accounting rows in [counts] partition exactly
          ({!Accounting.consistent}). *)
  counts : int array;
      (** every dynamic count of the run, indexed by {!Hc_obs.Counts} id;
          the named int fields above are read-only views of it; its
          [Stall] rows are all 0 unless [stall] is present *)
}
(** The named count fields are documented on their {!Hc_obs.Counts}
    entries and are set only by {!of_counts}; build a [t] through it so
    they always agree with [counts]. *)

val of_counts :
  name:string -> scheme_name:string -> ?stall:Accounting.widths -> int array -> t
(** The run record of a final count vector, with no static bounds
    attached. *)

val cycles : t -> float
(** Elapsed wide-cluster (slow) cycles: [ticks / 2]. *)

val ipc : t -> float
(** Committed trace uops per slow cycle. *)

val copy_pct : t -> float
(** Copies as a percentage of committed uops (Figs 7–9). *)

val steered_pct : t -> float
(** Helper-cluster instructions as a percentage of committed uops. *)

val wpred_accuracy_pct : t -> float
(** Fig 5: correct predictions over all predictions. *)

val wpred_fatal_pct : t -> float
val wpred_nonfatal_pct : t -> float

val cp_accuracy_pct : t -> float
(** §3.6: useful prefetches over issued prefetches; 0 when none issued. *)

val imbalance_w2n_pct : t -> float
(** NREADY wide→narrow imbalance normalized by used issue slots (§3.7). *)

val imbalance_n2w_pct : t -> float

val speedup_pct : baseline:t -> t -> float
(** Performance increase over the baseline run, in percent (Figs 6/12/14). *)

val steered_888_pct : t -> float
(** Attribution shares as percentages of committed uops. *)

val steered_br_pct : t -> float
val steered_cr_pct : t -> float
val steered_ir_pct : t -> float
val wide_demoted_pct : t -> float

val attrib_narrow_sum : t -> int
(** [steered_888 + steered_br + steered_cr + steered_ir + steered_other];
    equals [steered_narrow] on every run. *)

val attrib_consistent : t -> bool
(** The attribution invariants: narrow attribution columns sum to
    [steered_narrow], [steered_ir = split_uops], and the wide columns sum
    to [committed - steered_narrow]. *)

val stall_consistent : t -> bool
(** The cycle-accounting partition invariant on the stall rows of
    [counts] ({!Accounting.consistent}); [true] vacuously when
    accounting was off. *)

val schema : int
(** The ["schema"] number {!to_json} writes. *)

val to_json : t -> string
(** The whole record as one JSON object — every dynamic count, the
    derived IPC/cycles, and the activity counters keyed by name, all
    walked off the {!Hc_obs.Counts} table.
    Shared by the CSV/JSON export layer and the telemetry writers so a
    run's numbers serialize identically everywhere. Carries
    ["schema"]:{!schema}, now 5 (schema 2 added the steering-attribution columns;
    schema 3 the optional ["static_narrow_bound"] key, present only
    when the bound is attached; schema 4 the optional ["stall"]
    cycle-accounting object, present only when accounting was on;
    schema 5 the optional ["static_bidir_bound"] key, the tightened
    bidirectional oracle bound). *)

val pp : Format.formatter -> t -> unit
