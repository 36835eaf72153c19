(** Dynamic uops — the unit the frontend steers and the backends execute.

    A [Uop.t] is one dynamic instance from a trace. Besides the static
    fields (pc, opcode, register operands) it carries the {e ground truth}
    of the traced execution: concrete source values, the concrete result,
    the memory address and the branch direction. The simulator's predictors
    see none of this directly — they are trained at writeback, exactly like
    the hardware tables of the paper — but the execution model uses it to
    detect fatal width mispredictions and carry propagation.

    Records are a display and diagnostic form (the linter's per-uop
    checks, [hc_trace dump], the analyses' violation reports, tests); the
    generator, the codec and the text loader write the packed columns of
    {!Uop_soa} directly, and the simulator and the analyses read them,
    ground-truth width shapes ([is_888_bits], [is_8_32_32_bits], ...)
    included. *)

type operand =
  | Reg of Reg.t
  | Imm of Value.t  (** immediate; its width is architecturally known *)

type t = {
  id : int;  (** dynamic sequence number, dense from 0 within a trace *)
  pc : Value.t;  (** synthetic PC; indexes the width/CP predictors *)
  op : Opcode.t;
  srcs : operand list;
  dst : Reg.t option;
  src_vals : Value.t list;  (** concrete source values, parallel to [srcs] *)
  result : Value.t;  (** concrete result; [0] when the uop produces none *)
  mem_addr : Value.t;  (** effective address for loads/stores, else [0] *)
  taken : bool;  (** branch direction, [false] for non-branches *)
  branch_mispredicted : bool;
      (** did the frontend branch predictor miss this dynamic branch —
          sampled by the trace generator from the profile's rate *)
  dl0_miss : bool;
      (** memory ground truth: this access misses the level-1 data cache.
          Carried in the trace so every simulator configuration sees the
          same memory behaviour. *)
  ul1_miss : bool;  (** and also misses the level-2 cache *)
}

val make :
  id:int ->
  pc:Value.t ->
  op:Opcode.t ->
  srcs:operand list ->
  dst:Reg.t option ->
  src_vals:Value.t list ->
  ?result:Value.t ->
  ?mem_addr:Value.t ->
  ?taken:bool ->
  ?branch_mispredicted:bool ->
  ?dl0_miss:bool ->
  ?ul1_miss:bool ->
  unit ->
  t
(** Smart constructor. When [result] is omitted it is computed with
    {!Semantics.eval} where possible (pure ALU ops), else [0].
    @raise Invalid_argument if [src_vals] and [srcs] lengths differ. *)

val has_dest : t -> bool

val writes_flags : t -> bool

val pp : Format.formatter -> t -> unit

val pp_operand : Format.formatter -> operand -> unit
