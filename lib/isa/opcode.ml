type t =
  | Add | Sub | And | Or | Xor | Shl | Shr | Cmp | Mov | Lea
  | Mul | Div
  | Load | Store
  | Branch_cond
  | Branch_uncond
  | Fp_add | Fp_mul | Fp_div
  | Copy
  | Nop

type exec_class = Int_alu | Int_mul | Mem | Ctrl | Fp

let exec_class = function
  | Add | Sub | And | Or | Xor | Shl | Shr | Cmp | Mov | Lea | Copy | Nop -> Int_alu
  | Mul | Div -> Int_mul
  | Load | Store -> Mem
  | Branch_cond | Branch_uncond -> Ctrl
  | Fp_add | Fp_mul | Fp_div -> Fp

(* The helper cluster has 8-bit integer units only (§2.1): no
   multiply/divide, no floating point. *)
let helper_capable op =
  match exec_class op with
  | Int_alu | Mem | Ctrl -> true
  | Int_mul | Fp -> false

let latency = function
  | Add | Sub | And | Or | Xor | Shl | Shr | Cmp | Mov | Lea -> 1
  | Mul -> 4
  | Div -> 20
  | Load -> 1 (* AGU only; cache time added by the memory model *)
  | Store -> 1
  | Branch_cond | Branch_uncond -> 1
  | Fp_add -> 4
  | Fp_mul -> 6
  | Fp_div -> 20
  | Copy -> 1
  | Nop -> 1

let writes_flags = function
  | Add | Sub | And | Or | Xor | Shl | Shr | Cmp -> true
  | Mov | Lea | Mul | Div | Load | Store | Branch_cond | Branch_uncond
  | Fp_add | Fp_mul | Fp_div | Copy | Nop -> false

let reads_flags = function
  | Branch_cond -> true
  | Add | Sub | And | Or | Xor | Shl | Shr | Cmp | Mov | Lea | Mul | Div
  | Load | Store | Branch_uncond | Fp_add | Fp_mul | Fp_div | Copy | Nop -> false

let is_memory = function
  | Load | Store -> true
  | Add | Sub | And | Or | Xor | Shl | Shr | Cmp | Mov | Lea | Mul | Div
  | Branch_cond | Branch_uncond | Fp_add | Fp_mul | Fp_div | Copy | Nop -> false

let is_branch = function
  | Branch_cond | Branch_uncond -> true
  | Add | Sub | And | Or | Xor | Shl | Shr | Cmp | Mov | Lea | Mul | Div
  | Load | Store | Fp_add | Fp_mul | Fp_div | Copy | Nop -> false

let is_fp = function
  | Fp_add | Fp_mul | Fp_div -> true
  | Add | Sub | And | Or | Xor | Shl | Shr | Cmp | Mov | Lea | Mul | Div
  | Load | Store | Branch_cond | Branch_uncond | Copy | Nop -> false

let carry_eligible = function
  | Add | Sub | Lea | Load | Store | Cmp -> true
  | And | Or | Xor | Shl | Shr | Mov | Mul | Div | Branch_cond | Branch_uncond
  | Fp_add | Fp_mul | Fp_div | Copy | Nop -> false

let splittable = function
  | Add | Sub | And | Or | Xor | Mov -> true
  | Shl | Shr | Cmp | Lea | Mul | Div | Load | Store | Branch_cond
  | Branch_uncond | Fp_add | Fp_mul | Fp_div | Copy | Nop -> false

let equal (a : t) (b : t) = a = b

let to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Cmp -> "cmp"
  | Mov -> "mov"
  | Lea -> "lea"
  | Mul -> "mul"
  | Div -> "div"
  | Load -> "load"
  | Store -> "store"
  | Branch_cond -> "jcc"
  | Branch_uncond -> "jmp"
  | Fp_add -> "fadd"
  | Fp_mul -> "fmul"
  | Fp_div -> "fdiv"
  | Copy -> "copy"
  | Nop -> "nop"

let pp ppf op = Format.pp_print_string ppf (to_string op)

let all =
  [ Add; Sub; And; Or; Xor; Shl; Shr; Cmp; Mov; Lea; Mul; Div; Load; Store;
    Branch_cond; Branch_uncond; Fp_add; Fp_mul; Fp_div; Copy; Nop ]

(* Dense indices for packed (structure-of-arrays) storage: the position in
   [all], stable because the HCTB header table is also written in [all]
   order. *)
let count = List.length all

let to_index = function
  | Add -> 0 | Sub -> 1 | And -> 2 | Or -> 3 | Xor -> 4 | Shl -> 5 | Shr -> 6
  | Cmp -> 7 | Mov -> 8 | Lea -> 9 | Mul -> 10 | Div -> 11 | Load -> 12
  | Store -> 13 | Branch_cond -> 14 | Branch_uncond -> 15 | Fp_add -> 16
  | Fp_mul -> 17 | Fp_div -> 18 | Copy -> 19 | Nop -> 20

let index_table = Array.of_list all

let of_index i =
  if i < 0 || i >= count then invalid_arg (Printf.sprintf "Opcode.of_index: %d" i);
  index_table.(i)
