(** Known-bits abstract domain over 32-bit values.

    An abstract value records, per bit position, whether the bit is
    proven 0, proven 1, or unknown; its concretization is every 32-bit
    value agreeing with the proven positions. All transfer functions are
    sound over-approximations of {!Hc_isa.Semantics.eval}: when the
    abstract inputs {!contains} the concrete operands, the abstract
    output contains the concrete result (differentially fuzzed in
    [test/test_fuzz.ml]). *)

type t = private {
  zeros : int;  (** mask of bit positions proven 0 *)
  ones : int;  (** mask of bit positions proven 1; disjoint from [zeros] *)
}

val top : t
(** No bit known: every 32-bit value. *)

val const : int -> t
(** Singleton abstraction of one concrete value (masked to 32 bits). *)

val known : t -> int
(** Mask of the positions whose bit value is proven. *)

val to_const : t -> int option
(** The concrete value when all 32 positions are proven. *)

val contains : t -> int -> bool
(** Is the concrete value in this abstract value's concretization? *)

val join : t -> t -> t
(** Least upper bound: keeps only the facts proven on both sides. *)

val equal : t -> t -> bool

val is_narrow : bits:int -> t -> bool
(** Provable narrowness mirroring [Detector.narrow]: every bit position
    at or above [bits] is proven 0, or every one proven 1. Implies
    [Detector.narrow ~bits v] for every contained [v]. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val add : t -> t -> t
(** The most precise known-bits sum, computed bit-parallel in a few word
    operations with the tristate-number addition of Vishwanathan et al.,
    "Sound, Precise, and Fast Abstract Interpretation with Tristate
    Numbers" (CGO 2022). Exact on fully known inputs. *)

val sub : t -> t -> t
(** [add a (lognot b)] with a carry-in of 1, as precise as {!add}. *)

val shl : t -> t -> t
(** Shift transfers give [top] unless the low five amount bits (the only
    ones the concrete semantics read) are all proven. *)

val shr : t -> t -> t

val shift_amount : t -> int
(** The provably constant shift amount: the low five bits (the only ones
    the concrete semantics read) when all are proven, masked to [0..31];
    [-1] when any of them is unknown. *)

val mul : t -> t -> t
(** Leading/trailing known-zero magnitude bound; exact on constants. *)

val div : t -> t -> t
(** Quotient bounded by the dividend; division by zero is 0, as in the
    concrete semantics. *)

val leading_known_zeros : t -> int
val trailing_known_zeros : t -> int

val transfer : Hc_isa.Opcode.t -> t list -> t option
(** Per-opcode dispatch mirroring [Semantics.eval] exactly in shape:
    binary opcodes use only the first two operands, [None] for opcodes
    whose result the evaluator cannot compute (memory data, control flow,
    floating point). *)

val transfer2 : Hc_isa.Opcode.t -> nsrcs:int -> a0:t -> a1:t -> t option
(** List-free {!transfer} for column-driven walks: [a0]/[a1] are the
    first two abstract operands of an [nsrcs]-operand uop (pass {!top}
    for positions [>= nsrcs]; they are ignored). Equivalent to [transfer]
    on the corresponding list. *)

val pp : Format.formatter -> t -> unit
(** 32-character bit pattern, [0]/[1]/[?] per position, bit 31 first. *)
