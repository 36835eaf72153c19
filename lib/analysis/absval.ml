(* Known-bits abstract domain over 32-bit values.

   An abstract value is a pair of masks: [zeros] are the bit positions
   proven 0, [ones] the positions proven 1; unlisted positions are
   unknown. The concretization is every 32-bit value agreeing with both
   masks, so [top] (both masks empty) is "any value" and a value with all
   32 positions known is a singleton.

   Every transfer function below is sound with respect to the concrete
   evaluator [Hc_isa.Semantics.eval]: if the inputs contain the concrete
   operands, the output contains the concrete result. That containment is
   the induction step behind the static pass's provable-width claims, and
   it is differentially fuzzed against [Semantics.eval] in test_fuzz.ml. *)

type t = {
  zeros : int;  (* mask of bits proven 0 *)
  ones : int;  (* mask of bits proven 1; disjoint from [zeros] *)
}

let mask32 = 0xFFFF_FFFF

let top = { zeros = 0; ones = 0 }

let const v =
  let v = v land mask32 in
  { zeros = lnot v land mask32; ones = v }

let known a = a.zeros lor a.ones

let to_const a = if known a = mask32 then Some a.ones else None

let contains a v =
  let v = v land mask32 in
  v land a.zeros = 0 && v land a.ones = a.ones

let join a b = { zeros = a.zeros land b.zeros; ones = a.ones land b.ones }

let equal (a : t) b = a = b

(* Detector.narrow's cut: a value is narrow under [bits] when every bit
   at position >= bits is 0 (small non-negative) or every one is 1
   (small negative, two's complement). Provable narrowness needs one of
   the two sign patterns to be fully known. *)
let is_narrow ~bits a =
  if bits >= 32 then true
  else
    let hi = Hc_isa.Detector.mask_above bits in
    a.zeros land hi = hi || a.ones land hi = hi

(* ----- bitwise transfers ----- *)

let logand a b = { ones = a.ones land b.ones; zeros = a.zeros lor b.zeros }

let logor a b = { ones = a.ones lor b.ones; zeros = a.zeros land b.zeros }

let logxor a b =
  { ones = (a.ones land b.zeros) lor (a.zeros land b.ones);
    zeros = (a.zeros land b.zeros) lor (a.ones land b.ones) }

let lognot a = { zeros = a.ones; ones = a.zeros }

(* ----- arithmetic transfers ----- *)

(* Addition with carry-in [cin] (0 or 1) over the tristate-number
   encoding of Vishwanathan et al., "Sound, Precise, and Fast Abstract
   Interpretation with Tristate Numbers" (CGO 2022; the Linux eBPF
   verifier's [tnum_add]): operand x is its proven ones [xv] plus any
   subset of its unknown positions [xm]. [sv] is the smallest concrete
   sum (every unknown bit 0) and [am + bm + sv] the largest (every
   unknown bit 1). A result bit is uncertain when an operand bit there is
   unknown or the two extreme sums differ there (a carry chain can reach
   it); every other bit is known and equal to [sv]'s. The result is the
   most precise known-bits sum, and exact on constants. *)
let adc ~av ~am ~bv ~bm cin =
  let sv = av + bv + cin in
  let mu = (((am + bm + sv) lxor sv) lor am lor bm) land mask32 in
  let v = sv land mask32 land lnot mu in
  { ones = v; zeros = mask32 land lnot (v lor mu) }

let unknown a = mask32 land lnot (known a)

let add a b = adc ~av:a.ones ~am:(unknown a) ~bv:b.ones ~bm:(unknown b) 0

(* a - b = a + ~b + 1 in two's complement; ~b swaps b's proven masks *)
let sub a b = adc ~av:a.ones ~am:(unknown a) ~bv:b.zeros ~bm:(unknown b) 1

(* The concrete semantics shift by [amount land 31], so the amount only
   needs its low five bits known; -1 when it is not. *)
let shift_amount b = if known b land 31 = 31 then b.ones land 31 else -1

let shl a b =
  match shift_amount b with
  | -1 -> top
  | k ->
    { ones = (a.ones lsl k) land mask32;
      zeros = ((a.zeros lsl k) land mask32) lor ((1 lsl k) - 1) }

let shr a b =
  match shift_amount b with
  | -1 -> top
  | k ->
    let hi = if k = 0 then 0 else mask32 land lnot (mask32 lsr k) in
    { ones = a.ones lsr k; zeros = (a.zeros lsr k) lor hi }

(* Contiguous known-zero run from bit 31 down: bounds the magnitude. *)
let leading_known_zeros a =
  let rec go i n =
    if i < 0 || (a.zeros lsr i) land 1 = 0 then n else go (i - 1) (n + 1)
  in
  go 31 0

let trailing_known_zeros a =
  let rec go i n =
    if i > 31 || (a.zeros lsr i) land 1 = 0 then n else go (i + 1) (n + 1)
  in
  go 0 0

(* Magnitude bound: a < 2^wa and b < 2^wb give a*b < 2^(wa+wb), so the
   bits above wa+wb are known 0 when that fits in 32; the product also
   keeps the factors' combined trailing zeros (wraparound only discards
   high bits). The concrete multiply wraps identically through mask32. *)
let mul a b =
  match (to_const a, to_const b) with
  | Some x, Some y -> const (x * y)
  | _ ->
    let width m = 32 - leading_known_zeros m in
    let tz = min 32 (trailing_known_zeros a + trailing_known_zeros b) in
    let low = if tz >= 32 then mask32 else (1 lsl tz) - 1 in
    let wsum = width a + width b in
    let high = if wsum >= 32 then 0 else mask32 land lnot ((1 lsl wsum) - 1) in
    { ones = 0; zeros = (low lor high) land mask32 }

(* Unsigned quotient never exceeds the dividend (and division by zero is
   defined as 0), so the dividend's known leading zeros survive. *)
let div a b =
  match (to_const a, to_const b) with
  | Some x, Some y -> const (if y = 0 then 0 else x / y)
  | _ ->
    let lz = leading_known_zeros a in
    { ones = 0; zeros = (if lz = 0 then 0 else mask32 land lnot (mask32 lsr lz)) }

(* ----- per-opcode dispatch, mirroring Semantics.eval ----- *)

let some_if cond r = if cond then Some r else None

(* Same operand discipline as the concrete evaluator: binary transfers
   read only the first two abstract operands (a third operand is implicit
   IA-32 machine state the arithmetic ignores), unary only the first, and
   opcodes whose result the evaluator cannot compute (memory data, control
   flow, floating point) produce no abstract result either. Results are
   computed before the arity check (binary transfers of a short operand
   list read [top]) so the dispatch builds no closure. *)
let transfer2 op ~nsrcs ~(a0 : t) ~(a1 : t) : t option =
  let binary = nsrcs >= 2 and unary = nsrcs >= 1 in
  match (op : Hc_isa.Opcode.t) with
  | Add | Lea -> some_if binary (add a0 a1)
  | Sub | Cmp -> some_if binary (sub a0 a1)
  | And -> some_if binary (logand a0 a1)
  | Or -> some_if binary (logor a0 a1)
  | Xor -> some_if binary (logxor a0 a1)
  | Shl -> some_if binary (shl a0 a1)
  | Shr -> some_if binary (shr a0 a1)
  | Mov | Copy -> some_if unary a0
  | Mul -> some_if binary (mul a0 a1)
  | Div -> some_if binary (div a0 a1)
  | Load | Store | Branch_cond | Branch_uncond | Fp_add | Fp_mul | Fp_div | Nop ->
    None

let transfer op (vals : t list) : t option =
  let at i = match List.nth_opt vals i with Some a -> a | None -> top in
  transfer2 op ~nsrcs:(List.length vals) ~a0:(at 0) ~a1:(at 1)

let pp ppf a =
  (* render as a 32-character bit pattern: 0 / 1 / ? per position *)
  let buf = Buffer.create 32 in
  for i = 31 downto 0 do
    Buffer.add_char buf
      (if (a.ones lsr i) land 1 = 1 then '1'
       else if (a.zeros lsr i) land 1 = 1 then '0'
       else '?')
  done;
  Format.pp_print_string ppf (Buffer.contents buf)
