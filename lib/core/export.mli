(** Plot-ready CSV export of the reproduced figures.

    Writes one CSV per figure into a directory, re-deriving the series
    from the same memoized runs the experiment tables use, so the numbers
    in a plot always match the printed tables. *)

val write_all : Runs.t -> dir:string -> string list
(** [write_all runs ~dir] creates [dir] (including missing parents) and
    writes [meta.json] (run metadata: git SHA, host cores, jobs, trace
    seed fingerprint, wall-clock, trace length), then [fig1.csv],
    [fig5.csv], [fig6.csv], [fig7.csv], [fig8_9.csv], [fig11.csv],
    [fig12.csv], [fig13.csv], [stack.csv] (the scheme-stack summary) and
    [fig14.csv] (category averages). Returns the paths written, in that
    order. *)

val csv_line : string list -> string
(** One CSV record: fields joined with commas, quoted when they contain a
    comma or quote. Exposed for tests. *)
