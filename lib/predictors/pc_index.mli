(** The entry a PC selects in a tagless predictor table of [size]
    entries: [(pc lsr 2) mod size], computed with one mask when [size]
    is a power of two. *)

val mask : int -> int
(** [mask size] is [size - 1] when [size] is a power of two, else -1. *)

val index : size:int -> mask:int -> int -> int
(** [index ~size ~mask:(mask size) pc = (pc lsr 2) mod size] for every
    [pc] and [size > 0]. *)
