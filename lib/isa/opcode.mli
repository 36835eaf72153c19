(** Uop opcodes of the IA-32-like internal machine.

    IA-32 instructions are cracked by the frontend into uops; this is the
    vocabulary the simulator schedules. Each opcode carries static
    properties the steering policies consult: execution class (which
    functional unit it needs), latency, whether it writes or reads the
    flags register, whether the CR carry-prediction scheme may consider it
    (§3.5 excludes multiply and divide), and whether the IR splitter can
    decompose it into four byte lanes (§3.7). *)

type t =
  | Add | Sub | And | Or | Xor | Shl | Shr | Cmp | Mov | Lea
  | Mul | Div
  | Load | Store
  | Branch_cond  (** conditional branch, reads [Eflags] *)
  | Branch_uncond
  | Fp_add | Fp_mul | Fp_div
  | Copy  (** inter-cluster register copy (Canal et al. PACT-99) *)
  | Nop

type exec_class =
  | Int_alu   (** single-cycle integer ALU *)
  | Int_mul   (** long-latency integer (mul/div) *)
  | Mem       (** load/store: AGU + memory pipeline *)
  | Ctrl      (** branches *)
  | Fp        (** floating point, wide cluster only *)

val exec_class : t -> exec_class

val helper_capable : t -> bool
(** Can the 8-bit helper cluster execute this opcode at all? Integer
    ALU, memory and control uops yes; multiply, divide and floating
    point never (§2.1). *)

val latency : t -> int
(** Execution latency in wide-cluster (slow) cycles, excluding memory
    hierarchy time for loads. *)

val writes_flags : t -> bool
(** Arithmetic/logic uops that update [Eflags]. *)

val reads_flags : t -> bool
(** [true] exactly for [Branch_cond]. *)

val is_memory : t -> bool
val is_branch : t -> bool
val is_fp : t -> bool

val carry_eligible : t -> bool
(** Opcodes the CR (carry width prediction) scheme may steer: additive
    address/arithmetic uops whose fatal mispredictions are caught by the
    carry-out signal. Multiply, divide and shifts are excluded. *)

val splittable : t -> bool
(** Opcodes the IR scheme can split into four chained 8-bit uops:
    byte-wise decomposable ALU operations. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val all : t list
(** Every opcode, for exhaustive table-driven tests. *)

val count : int
(** Number of opcodes ([List.length all]). *)

val to_index : t -> int
(** Dense index of the opcode — its position in {!all}. Used by the
    packed structure-of-arrays trace columns and the HCTB name table. *)

val of_index : int -> t
(** Inverse of {!to_index}. @raise Invalid_argument if out of range. *)
