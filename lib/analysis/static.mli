(** Static width inference over a trace's def-use chains.

    A forward abstract-interpretation pass in the {!Absval} known-bits
    domain. It mirrors the trace generator's architected state exactly
    (writeback order: destination register, then flags) but never reads
    ground-truth values — the verdicts are what a compile-time pass could
    prove from opcodes, operands and immediates alone.

    The provable-narrow set is a sound lower bound on the dynamic 8_8_8
    predictor's opportunity (§3.2): steering only this set can never
    trigger a width-violation recovery. The [static_888] oracle scheme in
    [Hc_core.Runs] is built on exactly this guarantee. *)

type t = {
  bits : int;  (** narrowness threshold the pass proved against *)
  first_id : int;  (** id of the first uop (sliced traces start offset) *)
  provable : bool array;
      (** by trace position: provably satisfies the 8-8-8 shape of
          [Uop_soa.is_888_bits] (all sources narrow; narrow result when one
          is observable) *)
  steerable : bool array;
      (** [provable] restricted to {!oracle_eligible} uops *)
  provable_count : int;
  steerable_count : int;
      (** the oracle steering bound: helper-cluster commits a provably
          sound policy can reach on this trace *)
}

val oracle_eligible : Hc_isa.Opcode.t -> bool
(** The opcodes the 8_8_8 steering rule can reach at all: helper-capable
    opcodes (no mul/div/fp) minus branches (BR path) and stores (the MOB
    keeps them wide). *)

val analyze : ?bits:int -> Hc_trace.Trace.t -> t
(** Run the pass ([bits] defaults to 8, the paper's helper width). Cost
    is one linear scan with constant per-uop work. *)

(** {1 Verdict queries}

    Keyed by dynamic uop id ({!Hc_isa.Uop_soa.id}), not trace position,
    and allocation-free except for {!verdict}'s option. *)

val in_range : t -> int -> bool
(** Does this uop id fall inside the analyzed window? Sliced traces
    start at a nonzero [first_id], so ids below it (or past the end) have
    no verdict at all — they are neither proven narrow nor proven wide. *)

val verdict : t -> int -> bool option
(** Three-valued verdict lookup: [Some true] provably narrow, [Some
    false] analyzed but not provable, [None] outside the analyzed
    window. *)

val provably_narrow : t -> int -> bool
(** [verdict] collapsed for steering predicates: [false] both for
    analyzed-but-unprovable uops and for out-of-window ids (a sound
    default — never steer what was never proven). Use {!verdict} when
    the distinction matters. *)

val steerable_uop : t -> int -> bool
(** [steerable] by uop id; [false] outside the window. *)

type violation = {
  index : int;  (** trace position *)
  uop : Hc_isa.Uop.t;
}

val soundness_violations : t -> Hc_trace.Trace.t -> violation list
(** Every uop classified provably narrow whose ground-truth values fail
    [Uop_soa.is_888_bits] — the one place ground truth is consulted. Any
    entry is a hard analysis bug; the linter (E110), the test suite and
    the smoke gate all require this list to be empty. *)

(** {1 The bidirectional fixpoint}

    The forward pass only proves a uop 8-8-8 safe when the high bits of
    its values are {e known}. Joining it with the backward live-bits
    pass ({!Livebits}) adds the dual fact: a source or result whose
    high bits are unknown — even genuinely wide in ground truth — is
    still safe to execute narrow when those high bits are {e dead},
    i.e. no downstream consumer ever reads them. Per uop:

    - every source is forward-narrow {e or} this uop's backward demand
      on it stays below the narrow cut, and
    - the result is forward-narrow {e or} its live mask stays below the
      narrow cut (or there is no observable result).

    Forward-provable uops satisfy both clauses through their
    forward-narrow arms, so [bidir_provable ⊇ forward provable] holds by
    construction — asserted on every trace, and surfaced as lint W203
    should a hand-built record ever break it. *)

type bidir = {
  base : t;  (** the forward pass, unchanged *)
  livebits : Livebits.t;
  bidir_provable : bool array;
  bidir_steerable : bool array;  (** restricted to {!oracle_eligible} *)
  bidir_provable_count : int;
  bidir_steerable_count : int;
      (** the tightened oracle steering bound; always [>=]
          [base.steerable_count] *)
}

val analyze_bidir : ?bits:int -> Hc_trace.Trace.t -> bidir
(** Forward pass (recording per-uop source/result narrowness and proven
    shift amounts), backward pass seeded with the forward shift
    constants, then the per-uop join above. Two linear scans. *)

val bidir_verdict : bidir -> int -> bool option
(** Three-valued, like {!verdict}, by uop id. *)

val bidir_provable_uop : bidir -> int -> bool
(** The [static_bidir] oracle's steering predicate, by uop id: [false]
    outside the window. *)
