(* Concrete evaluation of uop opcodes over 32-bit values. The trace
   generator uses this to keep the value flow of a synthetic trace
   self-consistent, so that width detection, carry propagation and byte
   splitting observe genuine arithmetic rather than sampled labels. *)

let eval2 op a b =
  match (op : Opcode.t) with
  | Add | Lea -> Value.add a b
  | Sub | Cmp -> Value.sub a b
  | And -> a land b
  | Or -> a lor b
  | Xor -> Value.mask32 (a lxor b)
  | Shl -> Value.mask32 (a lsl (b land 31))
  | Shr -> a lsr (b land 31)
  | Mov | Copy -> a
  | Mul -> Value.mask32 (a * b)
  | Div -> if b = 0 then 0 else a / b
  | Load | Store | Branch_cond | Branch_uncond | Fp_add | Fp_mul | Fp_div | Nop ->
    invalid_arg ("Semantics.eval2: no result for " ^ Opcode.to_string op)

let eval op (vals : Value.t list) : Value.t option =
  match ((op : Opcode.t), vals) with
  | (Load | Store | Branch_cond | Branch_uncond | Fp_add | Fp_mul | Fp_div | Nop), _
  | _, [] ->
    None
  | (Mov | Copy), a :: _ -> Some a
  | _, [ _ ] -> None
  | _, a :: b :: _ -> Some (eval2 op a b)
