(** Interval metrics samples.

    Every N ticks the pipeline snapshots its cumulative count vector
    (indexed by {!Counts} ids); the sink turns consecutive snapshots into
    per-interval deltas, so a run becomes a time series (program phases,
    predictor warm-up, copy bursts) whose column sums reproduce the
    end-of-run counts exactly. *)

type t = {
  t_start : int;  (** first tick of the interval (exclusive start) *)
  t_end : int;  (** tick the snapshot was taken *)
  d : int array;  (** count deltas over the interval, by {!Counts} id *)
  iq_wide : int;  (** wide issue-queue occupancy at [t_end] *)
  iq_narrow : int;
  rob : int;  (** ROB occupancy at [t_end] *)
}

val make :
  t_start:int -> t_end:int -> iq_wide:int -> iq_narrow:int -> rob:int ->
  int array -> t

val ipc : t -> float
(** Committed uops per wide (slow) cycle over the interval. *)

val wpred_accuracy : t -> float
(** Correct width predictions over all resolved in the interval, %. *)

val aggregate : t list -> int array
(** Column sums of the deltas — equals the run's final count vector
    when the series covers the whole run. *)

val csv_header : string
val to_csv_row : t -> string
val to_json : t -> string
