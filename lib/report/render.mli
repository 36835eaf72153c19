(** Terminal rendering for [hc_report].

    All functions return the finished string; the CLI decides where it
    goes. Tables reuse [Hc_stats.Table] so the report output matches the
    experiment reports visually. *)

val run_label : Json.t -> string
(** ["name [scheme]"] when the metrics file carries both, else a stub. *)

val summary_table : (string * Json.t) list -> string
(** Cross-scheme comparison: one column per loaded metrics file, one row
    per headline metric (IPC, steered/copies %, width-prediction
    outcome, issue totals). *)

val attrib_table : (string * Json.t) list -> string
(** Steering-attribution breakdown per run: committed helper-cluster
    uops by steering reason (888/BR/CR/IR-split/other) and the wide
    commits split into by-default vs demoted-by-recovery, each as count
    and % of committed. Schema 3 files also get a "provable (static)"
    row — the forward static width-inference steering bound attached by
    [Hc_core.Runs] — and schema 5 files a "provable (bidir)" row, the
    tightened bidirectional bound ("-" for older files). *)

val over_static_bound : Json.t -> bool
(** [true] when the file's predicted 8-8-8 steering ([steered_888])
    exceeds its tightest static provable bound ([static_bidir_bound]
    when present, else [static_narrow_bound]) — the predictors are
    speculating past what is provably safe to execute narrow, so some of
    that steering is exposed to width-violation recoveries. [false] when
    the keys are absent (pre-schema-3 files). *)

val attrib_consistent : Json.t -> bool
(** The attribution identity on a loaded metrics file: narrow reasons
    sum to [steered_narrow], [steered_ir = split_uops], wide columns sum
    to [committed - steered_narrow]. Files predating schema 2 (no
    attribution fields) report [true] vacuously. *)

val stall_categories : string list
(** The nine stall-category names of the ["stall"] object and the stall
    CSV, in their serialized order. *)

val stall_lanes : string list
(** The stall lanes, in serialized order: ["wide"], ["narrow"],
    ["commit"]. *)

val topdown_consistent : Json.t -> bool
(** The partition invariant on a schema-4 metrics file: for each lane of
    the ["stall"] object (wide / narrow / commit), the nine category
    counts sum to exactly [lane_width x rounds] — no tolerance. Files
    without a stall object (accounting off, or pre-schema-4) report
    [true] vacuously. *)

val topdown_table : Json.t -> string
(** Per-lane top-down slot attribution from one metrics file: one row
    per stall category, slot count and share per lane, plus the exact
    expected totals row. *)

val topdown_delta_table :
  base:string * Json.t -> cand:string * Json.t -> string
(** Policy-vs-policy view: each category's share of lane slots under the
    base and candidate runs side by side with the delta in percentage
    points — where did the cycles the faster policy recovered come
    from. *)

val stall_timeline_columns : string list
(** The phase-visible subset of the stall-interval CSV columns, for
    {!timeline} [~columns]. *)

val timeline : ?width:int -> ?columns:string list -> Loader.csv -> string
(** Sparkline per column of an interval CSV (default: the phase-visible
    ones — ipc, steered_narrow, copies, wpred_accuracy_pct, rob). *)

val diff_table : ?all:bool -> Diff.report -> string
(** The comparison verdict: by default only non-passing entries plus a
    summary line; [all] lists every compared key. *)
