(* Tests for the consecutive zero/one detection circuits (Fig 3). *)

module Detector = Hc_isa.Detector
module Absval = Hc_analysis.Absval

let check_bool = Alcotest.(check bool)

(* The bit-serial reference: one step per bit above the anchor, as the
   pull-down chain is drawn. Detector computes the same functions with
   one mask test each. *)
module Ref = struct
  let rec zeros_from i v = i > 31 || ((v lsr i) land 1 = 0 && zeros_from (i + 1) v)
  let rec ones_from i v = i > 31 || ((v lsr i) land 1 = 1 && ones_from (i + 1) v)
  let zeros_above k v = zeros_from k v
  let ones_above k v = ones_from k v
  let narrow ~bits v = bits = 32 || zeros_above bits v || ones_above bits v
  let narrow8 v = narrow ~bits:8 v
  let narrow8_unsigned v = zeros_above 8 v

  (* bits k..31 set, one at a time *)
  let rec mask_from i = if i > 31 then 0 else (1 lsl i) lor mask_from (i + 1)
end

let test_zeros_above () =
  check_bool "zero value" true (Detector.zeros_above 0 0);
  check_bool "bit below anchor ignored" true (Detector.zeros_above 8 0xFF);
  check_bool "bit at anchor detected" false (Detector.zeros_above 8 0x100);
  check_bool "high bit detected" false (Detector.zeros_above 8 0x8000_0000);
  check_bool "anchor 32 always true" true (Detector.zeros_above 32 0xFFFF_FFFF)

let test_ones_above () =
  check_bool "all ones" true (Detector.ones_above 0 0xFFFF_FFFF);
  check_bool "low bits ignored" true (Detector.ones_above 8 0xFFFF_FF00);
  check_bool "hole detected" false (Detector.ones_above 8 0xFFFF_0000);
  check_bool "anchor 32 always true" true (Detector.ones_above 32 0)

let test_narrow8_boundaries () =
  check_bool "0 narrow" true (Detector.narrow8 0);
  check_bool "0xFF narrow (leading zeros)" true (Detector.narrow8 0xFF);
  check_bool "0x100 wide" false (Detector.narrow8 0x100);
  check_bool "-1 pattern narrow (leading ones)" true (Detector.narrow8 0xFFFF_FFFF);
  check_bool "0xFFFFFF00 narrow" true (Detector.narrow8 0xFFFF_FF00);
  check_bool "0xFFFFFE00 wide" false (Detector.narrow8 0xFFFF_FE00);
  check_bool "0x80000000 wide" false (Detector.narrow8 0x8000_0000)

let test_narrow8_unsigned () =
  check_bool "0xFF narrow" true (Detector.narrow8_unsigned 0xFF);
  check_bool "negative pattern wide" false (Detector.narrow8_unsigned 0xFFFF_FFFF)

let gen32 = QCheck.map (fun v -> v land 0xFFFF_FFFF) (QCheck.int_range 0 max_int)

let prop_narrow8_spec =
  QCheck.Test.make ~name:"narrow8 = upper 24 bits are a sign run" gen32 (fun v ->
      Detector.narrow8 v = (v lsr 8 = 0 || v lsr 8 = 0xFF_FFFF))

let prop_unsigned_spec =
  QCheck.Test.make ~name:"narrow8_unsigned = value < 256" gen32 (fun v ->
      Detector.narrow8_unsigned v = (v < 0x100))

let prop_zeros_monotone =
  QCheck.Test.make ~name:"zeros_above monotone in anchor"
    (QCheck.pair gen32 (QCheck.int_range 0 31))
    (fun (v, k) ->
      (not (Detector.zeros_above k v)) || Detector.zeros_above (k + 1) v)

(* 2^k - 1, 2^k and 2^k + 1 and their negations, for every k an int
   holds: where a mask off by one bit would show *)
let boundaries =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun d ->
          let b = (1 lsl k) + d in
          [ b; -b ])
        [ -1; 0; 1 ])
    (List.init 63 Fun.id)

(* Any int, not just 32-bit patterns: bits above 31 and negative ints must
   not change a result. Half the draws are boundary values. *)
let gen_any =
  QCheck.make ~print:(Printf.sprintf "0x%x")
    QCheck.Gen.(oneof [ int; oneofl boundaries ])

(* every Detector function against the reference, at every anchor 0-32
   and every width 1-32 *)
let agrees_with_ref v =
  let ok =
    ref
      (Detector.narrow8 v = Ref.narrow8 v
      && Detector.narrow8_unsigned v = Ref.narrow8_unsigned v)
  in
  for k = 0 to 32 do
    ok :=
      !ok
      && Detector.zeros_above k v = Ref.zeros_above k v
      && Detector.ones_above k v = Ref.ones_above k v
      && (k = 0 || Detector.narrow ~bits:k v = Ref.narrow ~bits:k v)
  done;
  !ok

let prop_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"word-level detectors = bit-serial chain"
    gen_any agrees_with_ref

let test_boundaries_match_reference () =
  List.iter
    (fun v ->
      check_bool (Printf.sprintf "0x%x agrees with the chain" v) true
        (agrees_with_ref v))
    boundaries

let test_mask_above () =
  for k = 0 to 32 do
    Alcotest.(check int) (Printf.sprintf "mask_above %d" k) (Ref.mask_from k)
      (Detector.mask_above k)
  done

let prop_absval_const =
  QCheck.Test.make ~count:500 ~name:"Absval.is_narrow (const v) = Detector.narrow"
    gen_any (fun v ->
      let a = Absval.const v in
      let ok = ref true in
      for bits = 1 to 31 do
        ok := !ok && Absval.is_narrow ~bits a = Detector.narrow ~bits v
      done;
      !ok)

let suite =
  ( "detector",
    [
      Alcotest.test_case "zeros above" `Quick test_zeros_above;
      Alcotest.test_case "ones above" `Quick test_ones_above;
      Alcotest.test_case "narrow8 boundaries" `Quick test_narrow8_boundaries;
      Alcotest.test_case "narrow8 unsigned" `Quick test_narrow8_unsigned;
      QCheck_alcotest.to_alcotest prop_narrow8_spec;
      QCheck_alcotest.to_alcotest prop_unsigned_spec;
      QCheck_alcotest.to_alcotest prop_zeros_monotone;
      Alcotest.test_case "mask above" `Quick test_mask_above;
      Alcotest.test_case "2^k +- 1 match the chain" `Quick
        test_boundaries_match_reference;
      QCheck_alcotest.to_alcotest prop_matches_reference;
      QCheck_alcotest.to_alcotest prop_absval_const;
    ] )
