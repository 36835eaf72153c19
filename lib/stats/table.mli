(** ASCII table rendering for the experiment reports.

    [hc_experiments] regenerates each paper figure as a table of rows;
    this module keeps that output aligned and uniform. *)

type align = Left | Right

type t
(** A table under construction: a header and accumulated rows. *)

val create : ?aligns:align list -> string list -> t
(** [create ?aligns headers] starts a table. [aligns] defaults to [Left]
    for the first column and [Right] for the rest — the common
    "benchmark name then numbers" shape. When provided, its length must
    equal the header length. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the row width differs from the header. *)

val add_float_row : t -> string -> float list -> unit
(** [add_float_row t label xs] adds [label] followed by each float rendered
    with two decimals. *)

val add_separator : t -> unit
(** Inserts a horizontal rule before the next row. *)

val render : t -> string
(** Fully aligned rendering, including a rule under the header. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
