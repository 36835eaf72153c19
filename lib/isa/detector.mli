(** Word-level model of the consecutive zero / one detection circuits.

    Figure 3 of the paper shows dynamic-logic detectors that flag a value as
    narrow when its upper bits are a run of consecutive zeros (small
    positive value) or consecutive ones (small negative value in two's
    complement). Each circuit discharges one precharged node from all the
    upper bits at once, and this module computes that wide AND with one
    mask test: [zeros_above] and [ones_above] are the wired-NOR /
    wired-AND planes, and {!Width} builds its byte-granular classification
    on top of them. The tests check every function against a bit-serial
    reference, one bit per step.

    Only bits 0..31 are looked at: bits of an [int] above 31 never change
    a result. *)

val mask_above : int -> int
(** [mask_above k] has bits [k] to 31 set and every other bit clear: the
    positions the detectors anchored at bit [k] look at. [mask_above 32]
    is [0]. [k] must be within [0, 32]. [Hc_analysis.Absval] cuts
    provable narrowness with the same mask. *)

val zeros_above : int -> Value.t -> bool
(** [zeros_above k v] is [true] iff all bits of [v] at positions [k]
    and above (up to bit 31) are zero — the consecutive-zero detector
    anchored at bit [k]. [k] must be within [0, 32]; [zeros_above 32 v] is
    always [true]. *)

val ones_above : int -> Value.t -> bool
(** [ones_above k v] is the dual consecutive-one detector: [true] iff all
    bits of [v] at positions [k] and above are one. *)

val narrow8 : Value.t -> bool
(** [narrow8 v] is the 8-bit narrowness signal used throughout the paper:
    the upper 24 bits are all zero or all one, so the value is faithfully
    represented by its low byte plus sign. *)

val narrow8_unsigned : Value.t -> bool
(** [narrow8_unsigned v] only fires the zero detector (values in
    [0, 255]). Used where sign extension is not available, e.g. address
    low-byte reasoning. *)

val narrow : bits:int -> Value.t -> bool
(** [narrow ~bits v] generalizes {!narrow8} to an arbitrary datapath
    width: all bits at positions [bits] and above (up to bit 31) are a
    sign run, all zero or all one, so [narrow ~bits:8] is {!narrow8} and
    [narrow ~bits:32] is always [true]. The paper's proposed extension of
    a wider-than-8-bit helper cluster (section 2.1 discussion) uses this
    with [bits = 16].
    @raise Invalid_argument unless [1 <= bits <= 32]. *)
