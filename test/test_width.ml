(* Tests for width classification. *)

module Width = Hc_isa.Width

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_classify () =
  check_bool "0 narrow" true (Width.is_narrow 0);
  check_bool "255 narrow" true (Width.is_narrow 255);
  check_bool "256 wide" false (Width.is_narrow 256);
  Alcotest.(check string) "to_string" "narrow" (Width.to_string Width.Narrow);
  Alcotest.(check string) "to_string wide" "wide" (Width.to_string Width.Wide);
  check_bool "equal" true (Width.equal Width.Narrow Width.Narrow);
  check_bool "not equal" false (Width.equal Width.Narrow Width.Wide)

let test_significant_bytes () =
  check_int "0" 1 (Width.significant_bytes 0);
  check_int "0x7F one byte signed" 1 (Width.significant_bytes 0x7F);
  check_int "0xFF needs two signed" 2 (Width.significant_bytes 0xFF);
  check_int "all ones one byte signed" 1 (Width.significant_bytes 0xFFFF_FFFF);
  check_int "0x7FFF two" 2 (Width.significant_bytes 0x7FFF);
  check_int "0x8000 three" 3 (Width.significant_bytes 0x8000);
  check_int "0x7FFFFF three" 3 (Width.significant_bytes 0x7F_FFFF);
  check_int "0x800000 four" 4 (Width.significant_bytes 0x80_0000);
  check_int "max four" 4 (Width.significant_bytes 0x7FFF_FFFF);
  check_int "0xFFFF8000 two" 2 (Width.significant_bytes 0xFFFF_8000)

let test_significant_bytes_unsigned () =
  check_int "0" 1 (Width.significant_bytes_unsigned 0);
  check_int "0xFF one" 1 (Width.significant_bytes_unsigned 0xFF);
  check_int "0x100 two" 2 (Width.significant_bytes_unsigned 0x100);
  check_int "0xFFFF two" 2 (Width.significant_bytes_unsigned 0xFFFF);
  check_int "0x10000 three" 3 (Width.significant_bytes_unsigned 0x1_0000);
  check_int "0x1000000 four" 4 (Width.significant_bytes_unsigned 0x100_0000);
  check_int "0xFFFF8000 four" 4 (Width.significant_bytes_unsigned 0xFFFF_8000)

let test_narrow_fraction () =
  Alcotest.(check (float 1e-9)) "empty" 0. (Width.narrow_fraction []);
  Alcotest.(check (float 1e-9)) "half" 0.5 (Width.narrow_fraction [ 1; 0x1234 ]);
  Alcotest.(check (float 1e-9)) "all" 1. (Width.narrow_fraction [ 0; 1; 255 ])

let gen32 = QCheck.map (fun v -> v land 0xFFFF_FFFF) (QCheck.int_range 0 max_int)

let prop_bytes_range =
  QCheck.Test.make ~name:"significant_bytes in 1..4" gen32 (fun v ->
      let n = Width.significant_bytes v in
      n >= 1 && n <= 4)

let prop_narrow_iff_one_signed_byte =
  QCheck.Test.make ~name:"narrow iff one signed byte suffices" gen32 (fun v ->
      Width.is_narrow v = (Width.significant_bytes v = 1))

(* Below 2^31 the value reads the same signed and unsigned, and a signed
   encoding needs at most one more byte, for the sign bit. From 2^31 up
   bit 31 is set, so the unsigned encoding needs all four bytes while the
   signed one may need as few as one (0xFFFFFFFF is -1). *)
let prop_unsigned_vs_signed =
  QCheck.Test.make ~name:"unsigned vs signed byte counts" gen32 (fun v ->
      let s = Width.significant_bytes v
      and u = Width.significant_bytes_unsigned v in
      if v < 0x8000_0000 then u <= s && s <= min 4 (u + 1) else u = 4)

let suite =
  ( "width",
    [
      Alcotest.test_case "classify" `Quick test_classify;
      Alcotest.test_case "significant bytes (signed)" `Quick test_significant_bytes;
      Alcotest.test_case "significant bytes (unsigned)" `Quick
        test_significant_bytes_unsigned;
      Alcotest.test_case "narrow fraction" `Quick test_narrow_fraction;
      QCheck_alcotest.to_alcotest prop_bytes_range;
      QCheck_alcotest.to_alcotest prop_narrow_iff_one_signed_byte;
      QCheck_alcotest.to_alcotest prop_unsigned_vs_signed;
    ] )
