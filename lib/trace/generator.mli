(** Synthetic trace generation.

    Expands a {!Profile.t} into a stream of concrete uops. The generator
    maintains a synthetic {e static program} (whose size and loop structure
    come from the profile) and walks it dynamically, tracking an
    architectural register file of concrete 32-bit values. Consequences:

    - dependences are real: a consumer reads the value its producer wrote;
    - widths are real: ALU results come from {!Hc_isa.Semantics.eval2}, so
      a narrow+narrow addition occasionally overflows into width 9 — the
      genuine fatal-misprediction source of §3.2;
    - carry propagation is real: load addresses are computed, and the CR
      statistic of Fig 11 is measured on them;
    - width-predictor accuracy emerges from the per-static width characters
      ([Stable_narrow] / [Stable_wide] / [Mixed]) rather than being wired.

    Profile knobs that cannot emerge (carry locality of immediate-offset
    address arithmetic) are enforced constructively: the offset of an
    immediate-indexed load is drawn so that the low-byte addition carries
    exactly when the profile says it should. Register-indexed loads
    (Fig 10's [R2+R3] shape) take whatever the producing uop left in the
    index register.

    Each uop is generated into one reused cursor and copied straight into
    the trace's {!Hc_isa.Uop_soa} columns; no [Uop.t] record is built.
    The warm-up slice of {!generate_sliced} steps the same machine and
    keeps nothing. *)

val generate : ?length:int -> Profile.t -> Trace.t
(** [generate ~length p] materializes a fresh trace of [length] (default
    [50_000]) uops starting from reset state. *)

val generate_sliced : ?length:int -> Profile.t -> Trace.t
(** Paper methodology (§3.1): skip the initialization section. We generate
    [3/7 * length] warm-up uops (three of ten slices, with seven kept),
    discard them, and return the next [length] uops. *)
