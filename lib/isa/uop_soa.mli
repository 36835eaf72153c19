(** Packed structure-of-arrays trace storage.

    A [t] stores a whole uop sequence as parallel columns of immediate
    ints ([int array]/[Bytes]): ids, pcs, dense opcode indices, dense
    destination-register indices, results, memory addresses and a packed
    flag byte per uop, with operands flattened into shared
    register-index/value columns addressed through a prefix-offset
    column. This is the one trace representation the simulator, the
    steering layer, the static analyses, the trace statistics and the
    HCTB codec read: by trace index, without allocating or constructing
    [Uop.t] records.

    {!of_uops} and {!to_uops} are exact inverses; records exist only at
    the edges (the linter's per-uop checks, diagnostics, tests). The
    generator, the codec and the text loader fill columns through the
    {!builder}. *)

type t = private {
  len : int;
  ids : int array;
  pcs : int array;
  ops : int array;  (** {!Opcode.to_index} *)
  dsts : int array;  (** {!Reg.to_index}, or [-1] for no destination *)
  results : int array;
  mem_addrs : int array;
  flags : Bytes.t;
      (** bit 0 taken, 1 mispredicted, 2 dl0_miss, 3 ul1_miss *)
  src_off : int array;  (** [len + 1] prefix offsets into operand columns *)
  src_regs : int array;  (** flattened; {!Reg.to_index}, or [-1] = immediate *)
  src_vals : int array;  (** flattened concrete source values *)
}

val flag_taken : int
val flag_mispredicted : int
val flag_dl0 : int
val flag_ul1 : int

val length : t -> int

(** {1 Per-uop accessors} — all O(1) and allocation-free. *)

val id : t -> int -> int
val pc : t -> int -> int
val op_index : t -> int -> int
val op : t -> int -> Opcode.t
val dst_index : t -> int -> int
(** [-1] when the uop has no destination register. *)

val has_dest : t -> int -> bool
val result : t -> int -> int
val mem_addr : t -> int -> int
val writes_flags : t -> int -> bool

val flag : t -> int -> int -> bool
(** [flag t i bit]: is [bit] (one of the [flag_] constants) set for uop
    [i]. *)

val src_base : t -> int -> int
(** Absolute index of uop [i]'s first operand in the flattened columns. *)

val nsrcs : t -> int -> int

val src_reg : t -> int -> int
(** Register index of flattened operand [j] ([-1] for an immediate);
    [j] ranges over [src_base t i .. src_base t i + nsrcs t i - 1]. *)

val src_val : t -> int -> int
(** Concrete value of flattened operand [j]. *)

(** {1 Ground-truth width shapes}

    Read by the simulator's width-misprediction check and predictor
    training, the trace statistics and the analyses' soundness gates —
    never by a steering policy. [bits] is the helper datapath width (8
    in the paper). *)

val all_srcs_narrow_bits : bits:int -> t -> int -> bool
(** Every concrete source value narrow: the source side of 8-8-8. *)

val is_888_bits : bits:int -> t -> int -> bool
(** 8-8-8 eligibility: every source value narrow and, when the uop
    produces anything observable (a destination register or the flags),
    a narrow result too. *)

val is_8_32_32_bits : bits:int -> t -> int -> bool
(** CR shape (§3.5): two sources, exactly one wide, with a wide
    {!shape_result}. *)

val carry_not_propagated_bits : bits:int -> t -> int -> bool
(** For a carry-eligible {!is_8_32_32_bits} uop: did the traced
    execution leave the upper bits of the wide source unchanged
    (Fig 10)? [false] when the shape or opcode does not apply. *)

val shape_result : t -> int -> int
(** The value whose width classifies the uop: AGU output for memory uops,
    [result] otherwise. *)

(** {1 Converters} *)

val of_uops : Uop.t array -> t
val to_uops : t -> Uop.t array

val to_uop : t -> int -> Uop.t
(** The record of one uop, for diagnostics that print or re-evaluate a
    single instruction. *)

val sub : t -> pos:int -> len:int -> t
(** Contiguous slice with operand offsets rebased; ids are preserved.
    @raise Invalid_argument on out-of-range windows. *)

(** {1 Sequential builder}

    Fill target for producers that know the uop count up front (the
    generator, the codec, the text loader): push a uop's operands with
    {!push_src}, then {!close_uop} it; repeat in order, and {!build}
    once all [len] uops are closed. *)

type builder

val builder : int -> builder
(** [builder len] fills [len] uops. The operand columns start at three
    operands a uop (at least 16) and double if they fill.
    @raise Invalid_argument if [len] is negative. *)

val push_src : builder -> reg:int -> v:int -> unit
(** [reg] is a {!Reg.to_index} or [-1] for an immediate. *)

val pending_src_val : builder -> int -> int
(** Value of operand [k] (already pushed) of the uop currently open. *)

val pending_nsrcs : builder -> int

val close_uop :
  builder ->
  id:int ->
  pc:int ->
  op:int ->
  dst:int ->
  result:int ->
  mem_addr:int ->
  flags:int ->
  unit

val build : builder -> t
(** @raise Invalid_argument unless exactly [len] uops were closed. *)
