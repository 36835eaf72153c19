(* Figure 3's detectors are dynamic-logic pull-down chains: every bit
   above the anchor can discharge one precharged node, so the output is a
   single wide AND over bits k..31. The word-level model computes that
   AND with one mask: [v land mask_above k] keeps exactly the bits the
   chain looks at, for any int [v] (bits above 31 and negative ints
   included). test_detector.ml checks every function here against the
   bit-serial chain, one step per bit. *)

let mask_above k = 0xFFFF_FFFF lxor ((1 lsl k) - 1)

let zeros_above k v =
  assert (k >= 0 && k <= 32);
  v land mask_above k = 0

let ones_above k v =
  assert (k >= 0 && k <= 32);
  let m = mask_above k in
  v land m = m

let mask8 = mask_above 8

let narrow8 v =
  let u = v land mask8 in
  u = 0 || u = mask8

let narrow ~bits v =
  if bits < 1 || bits > 32 then invalid_arg "Detector.narrow: bits out of [1,32]";
  let m = mask_above bits in
  let u = v land m in
  u = 0 || u = m

let narrow8_unsigned v = v land mask8 = 0
