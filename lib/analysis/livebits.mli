(** Backward demand (live-bits) analysis over a trace's def-use chains.

    The dual of {!Static}'s forward known-bits pass: walking the trace
    backward, it computes for every uop the mask of result bits some
    later consumer — or the trace exit — actually reads. Per-opcode
    backward transfer functions mirror {!Absval.transfer}'s forward
    ones: bitwise ops pass the live mask straight through, add/sub/cmp
    (and mul) down-close it because carries ripple strictly upward,
    shifts with a provably constant amount translate it, and everything
    the concrete evaluator cannot compute — load addresses, stores,
    branches, floating point — plus the trace exit demands full width.

    A result bit outside the live mask is {e dead}: flipping it in
    ground truth changes no value any downstream consumer observes.
    That is the fact the bidirectional fixpoint
    ({!Static.analyze_bidir}) adds on top of forward narrowness, and
    {!soundness_violations} is its executable proof obligation (lint
    code E111; differentially fuzzed in [test/test_fuzz.ml]). *)

type t = {
  bits : int;  (** narrowness threshold the analysis was run for *)
  first_id : int;  (** id of the first uop (sliced traces start offset) *)
  live : int array;
      (** by trace position: mask of the uop's result bits consumed
          downstream (including the flags readers when it writes flags) *)
}

val analyze : ?bits:int -> ?known_amount:int array -> Hc_trace.Trace.t -> t
(** One backward linear scan. [known_amount.(i)] may supply a provably
    constant shift amount for the uop at position [i], or [-1] for none
    (the bidirectional pass feeds forward-proven constants in); immediate
    shift amounts are always used. Trace-exit register demand is full width, so the result
    is sound for sliced traces. *)

val backward_transfer :
  Hc_isa.Opcode.t -> nsrcs:int -> amount:int -> live:int -> int list
(** Per-source demand masks for one uop with live result mask [live].
    [amount] is the provably constant shift amount in [0..31], or [-1]
    when it is unknown (only shifts read it).
    Contract: changing source bits outside the returned masks leaves
    every result bit inside [live] unchanged under
    [Hc_isa.Semantics.eval]. Opcodes without a computable result return
    full-width demand for every source. *)

val backward_transfer_into :
  Hc_isa.Opcode.t ->
  nsrcs:int ->
  amount:int ->
  live:int ->
  int array ->
  unit
(** Allocation-free {!backward_transfer}: writes the [nsrcs] demand
    masks into the first [nsrcs] slots of the scratch array (which must
    be at least that long). The column-driven walks (this module's
    [analyze], the bidirectional join) use this to keep the per-uop
    inner loop list-free. *)

val live_mask : t -> index:int -> int

val dead_high : t -> index:int -> int
(** Bits at or above the narrow cut that the analysis claims dead:
    [hi_mask land lnot live]. {!soundness_violations} flips exactly these. *)

val hi_mask : bits:int -> int
(** Mask of positions at or above [bits] ([0] when [bits >= 32]). *)

type violation = {
  index : int;  (** trace position of the mutated producer *)
  uop : Hc_isa.Uop.t;
  consumer_index : int;
      (** position where the mutation became observable (trace length
          when it survived to the exit) *)
  flipped : int;  (** the claimed-dead bit mask that was flipped *)
}

val soundness_violations : t -> Hc_trace.Trace.t -> violation list
(** Every uop whose claimed-dead high bits are observable downstream —
    the live-bits dual of {!Static.soundness_violations}. Each uop's
    claimed-dead bits are flipped at once in its result and replayed
    downstream with [Semantics.eval], tracking only registers that now
    differ from ground truth; the mutation is observable when a
    full-width consumer reads a differing register or the difference
    survives to the trace exit. Any entry is a hard analysis bug: the
    linter (E111), the test suite and the smoke gate all require this
    list to be empty. The replay reads the trace's columns; a record is
    built only for each reported violation. *)
