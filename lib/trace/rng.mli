(** Deterministic pseudo-random numbers (splitmix64).

    Every synthetic workload is generated from an explicit seed so traces —
    and therefore every number in EXPERIMENTS.md — are bit-reproducible
    across runs and machines. The global [Random] state is never touched. *)

type t
(** A mutable generator. Its 64-bit state is held unboxed, so [bool],
    [int], [int_in], [choice] and [geometric] allocate nothing;
    [next_int64] and [float] box only their result. *)

val create : int64 -> t
(** [create seed] — equal seeds yield equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each static instruction / application its own stream. *)

val copy : t -> t
(** Duplicate the current state without advancing it. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> float -> bool
(** [bool t p] is a Bernoulli draw with probability [p]. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1]. @raise Invalid_argument if [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val geometric : t -> float -> int
(** [geometric t mean] draws from a geometric distribution with the given
    mean, returning a value [>= 1]. @raise Invalid_argument if
    [mean < 1.]. *)

val choice : t -> 'a array -> 'a
(** Uniform pick. @raise Invalid_argument on an empty array. *)

val weighted : t -> (float * 'a) list -> 'a
(** [weighted t choices] draws proportionally to the non-negative weights.
    @raise Invalid_argument when the weight sum is not positive. *)

type 'a weights
(** A weighted choice built once, for drawing from many times. *)

val weights : (float * 'a) list -> 'a weights
(** [weights choices] precomputes the running weight sums.
    @raise Invalid_argument when the weight sum is not positive. *)

val pick : t -> 'a weights -> 'a
(** [pick t w] draws exactly what [weighted t choices] draws on the same
    stream, for the [choices] [w] was built from, without rebuilding
    anything per draw. *)
