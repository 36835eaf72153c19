(** One reproduction per table/figure of the paper's evaluation.

    Every experiment renders the same rows/series the paper reports and is
    also exposed as structured data for the test suite. Aggregate numbers
    (averages, the claims quoted in the paper's prose) come back in
    [headline] records so EXPERIMENTS.md can quote paper-vs-measured pairs
    mechanically. *)

type headline = {
  label : string;  (** what the number is, e.g. "avg speedup (%)" *)
  paper : float;  (** the value the paper reports *)
  measured : float;  (** what this reproduction measures *)
}

type t = {
  id : string;  (** "fig6", "tab2", … *)
  title : string;
  paper_claim : string;  (** the sentence/number the paper states *)
  run : Runs.t -> string * headline list;
      (** render the full table and return the headline comparisons *)
}

val all : t list
(** Every experiment, in paper order: fig1, opmix, fig5, fig6, fig7, fig8,
    fig9, fig11, fig12, fig13, cp, ir, attrib, headroom, related (the §4
    comparator), bottleneck, tab2, fig14. *)

val find : string -> t
(** @raise Not_found for an unknown id. *)

(* Structured accessors used by the integration tests. *)

val fig1_rows : Runs.t -> (string * float) list
(** benchmark → %% of ALU register operands that are narrow-dependent. *)

val fig5_rows : Runs.t -> (string * float * float * float) list
(** benchmark → (correct, fatal, non-fatal) percentages under 8_8_8. *)

val fig6_rows : Runs.t -> (string * float) list
(** benchmark → 8_8_8 speedup %% over baseline. *)

val fig7_rows : Runs.t -> (string * float * float) list
(** benchmark → (steered %%, copies %%) under 8_8_8. *)

val copies_by_scheme : Runs.t -> string -> (string * float) list
(** benchmark → copy %% under the given scheme (Figs 8 and 9). *)

val fig11_rows : Runs.t -> (string * float * float) list
(** benchmark → (arith %%, load %%) carry-not-propagated potential. *)

val fig12_rows : Runs.t -> (string * float * float) list
(** benchmark → (8_8_8 speedup, +CR-stack speedup). *)

val fig13_rows : Runs.t -> (string * float) list
(** benchmark → mean producer–consumer distance. *)

val bottleneck_schemes : string list
(** The schemes the bottleneck experiment breaks down (Runs scheme names,
    including the ["static_888"] and ["static_bidir"] oracles). Each
    (scheme, SPEC profile) breakdown is the [stall] field of that cell's
    {!Runs.metrics}: the campaign's own run, memoized or cached, not a
    second simulation. The experiment fails with [Failure] naming the
    scheme and profile if a cell carries no [stall]. *)

val fig14_speedups :
  ?apps_per_category:int ->
  ?length:int ->
  unit ->
  (Hc_trace.Profile.t * float) list
(** Simulate the Table-2 application suite (optionally subsampled to
    [apps_per_category] apps per category; [length] uops per app, default
    [8_000]) under baseline and +IR: app → +IR speedup %% over baseline,
    in suite order. The only simulating Fig 14 entry point; everything
    below is a pure function of its result. *)

val fig14_category_rows :
  (Hc_trace.Profile.t * float) list -> (string * float) list
(** category → average +IR speedup %% over baseline, from
    {!fig14_speedups}. *)

val fig14_curve : (Hc_trace.Profile.t * float) list -> float list
(** The Fig 14 S-curve: per-app speedup factors (baseline = 1.0), sorted
    ascending, from {!fig14_speedups}. *)

val fig14_render :
  (Hc_trace.Profile.t * float) list -> string * headline list
(** The fig14 experiment's text and headlines, from one
    {!fig14_speedups} list: the category table and the S-curve line. *)
