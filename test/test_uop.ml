(* Tests for dynamic uops: construction, and the ground-truth width
   shapes and carry checks, which live on the packed columns — each
   record is packed into a one-uop [Uop_soa.t] and queried at index 0. *)

module Uop = Hc_isa.Uop
module Uop_soa = Hc_isa.Uop_soa
module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg

let mk ?(op = Opcode.Add) ?(dst = Some Reg.Eax) ?result ?mem_addr srcs vals =
  Uop.make ~id:0 ~pc:0x400000 ~op ~srcs ~dst ~src_vals:vals ?result ?mem_addr ()

let on_columns shape u = shape ~bits:8 (Uop_soa.of_uops [| u |]) 0

let is_888 = on_columns Uop_soa.is_888_bits
let is_8_32_32 = on_columns Uop_soa.is_8_32_32_bits
let carry_not_propagated = on_columns Uop_soa.carry_not_propagated_bits
let all_srcs_narrow = on_columns Uop_soa.all_srcs_narrow_bits

let test_make_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Uop.make: srcs and src_vals lengths differ") (fun () ->
      ignore (mk [ Uop.Reg Reg.Eax ] [ 1; 2 ]))

let test_default_result () =
  let u = mk [ Uop.Reg Reg.Eax; Uop.Imm 2 ] [ 40; 2 ] in
  Alcotest.(check int) "add evaluates" 42 u.Uop.result;
  let u = mk ~op:Opcode.Load [ Uop.Reg Reg.Esi; Uop.Imm 4 ] [ 100; 4 ] in
  Alcotest.(check int) "load has no computed result" 0 u.Uop.result

let test_is_888 () =
  let narrow = mk [ Uop.Reg Reg.Eax; Uop.Imm 2 ] [ 3; 2 ] in
  Alcotest.(check bool) "narrow add" true (is_888 narrow);
  let wide_src = mk [ Uop.Reg Reg.Eax; Uop.Imm 2 ] [ 0x1_0000; 2 ] in
  Alcotest.(check bool) "wide source" false (is_888 wide_src);
  let overflow = mk [ Uop.Reg Reg.Eax; Uop.Imm 200 ] [ 200; 200 ] in
  Alcotest.(check bool) "narrow sources, 9-bit result" false (is_888 overflow);
  let store =
    mk ~op:Opcode.Store ~dst:None
      [ Uop.Reg Reg.Esi; Uop.Imm 4; Uop.Reg Reg.Eax ]
      [ 3; 4; 5 ]
  in
  Alcotest.(check bool) "no-output uop with narrow sources" true (is_888 store);
  (* a flags writer needs a narrow flags-determining result too: 200 minus
     -100 has narrow sources but a 9-bit difference *)
  let cmp_wide =
    mk ~op:Opcode.Cmp ~dst:None
      [ Uop.Reg Reg.Eax; Uop.Imm 0xFFFF_FF9C ]
      [ 200; 0xFFFF_FF9C ]
  in
  Alcotest.(check bool) "cmp producing wide flags value" false (is_888 cmp_wide);
  let cmp_narrow =
    mk ~op:Opcode.Cmp ~dst:None [ Uop.Reg Reg.Eax; Uop.Imm 1 ] [ 0; 1 ]
  in
  Alcotest.(check bool) "cmp with narrow difference" true (is_888 cmp_narrow)

let test_is_8_32_32 () =
  let cr = mk [ Uop.Reg Reg.Esi; Uop.Imm 4 ] [ 0x0800_1234; 4 ] in
  Alcotest.(check bool) "wide+narrow wide result" true (is_8_32_32 cr);
  let both_narrow = mk [ Uop.Reg Reg.Eax; Uop.Imm 4 ] [ 3; 4 ] in
  Alcotest.(check bool) "both narrow" false (is_8_32_32 both_narrow);
  let both_wide = mk [ Uop.Reg Reg.Eax; Uop.Imm 0x1_0000 ] [ 0x1_0000; 0x1_0000 ] in
  Alcotest.(check bool) "both wide" false (is_8_32_32 both_wide);
  let three = mk [ Uop.Reg Reg.Eax; Uop.Imm 4; Uop.Reg Reg.Ecx ] [ 0x1_0000; 4; 5 ] in
  Alcotest.(check bool) "three sources excluded" false (is_8_32_32 three)

let test_load_shape_uses_address () =
  (* loads: the 8-32-32 "result" is the effective address, not the data *)
  let narrow_data_load =
    mk ~op:Opcode.Load ~mem_addr:0x0800_1238 [ Uop.Reg Reg.Esi; Uop.Imm 4 ]
      [ 0x0800_1234; 4 ] ~result:7
  in
  Alcotest.(check bool) "narrow loaded value still 8-32-32" true
    (is_8_32_32 narrow_data_load);
  Alcotest.(check bool) "carry not propagated" true
    (carry_not_propagated narrow_data_load)

let test_carry_not_propagated () =
  let local = mk [ Uop.Reg Reg.Esi; Uop.Imm 0x1C ] [ 0xFFFC_4A02; 0x1C ] in
  Alcotest.(check bool) "Fig 10 example local" true (carry_not_propagated local);
  let crossing = mk [ Uop.Reg Reg.Esi; Uop.Imm 0x40 ] [ 0xFFFC_40F0; 0x40 ] in
  Alcotest.(check bool) "carry crosses" false (carry_not_propagated crossing);
  let mul = mk ~op:Opcode.Mul [ Uop.Reg Reg.Esi; Uop.Imm 4 ] [ 0x0800_0000; 4 ] in
  Alcotest.(check bool) "mul never considered" false (carry_not_propagated mul)

let test_width_accessors () =
  let u = mk [ Uop.Reg Reg.Eax; Uop.Imm 0x1_0000 ] [ 3; 0x1_0000 ] in
  Alcotest.(check bool) "has dest" true (Uop.has_dest u);
  let soa = Uop_soa.of_uops [| u |] in
  Alcotest.(check (list bool)) "src widths"
    [ true; false ]
    (List.init (Uop_soa.nsrcs soa 0) (fun k ->
         Hc_isa.Width.classify (Uop_soa.src_val soa (Uop_soa.src_base soa 0 + k))
         = Hc_isa.Width.Narrow));
  Alcotest.(check bool) "not all narrow" false (all_srcs_narrow u);
  Alcotest.(check bool) "writes flags (add)" true (Uop.writes_flags u)

(* property: is_888 implies every source fits the helper datapath *)
let prop_888_sources =
  let gen =
    QCheck.map
      (fun (a, b) ->
        mk [ Uop.Reg Reg.Eax; Uop.Imm (b land 0xFFFF_FFFF) ]
          [ a land 0xFFFF_FFFF; b land 0xFFFF_FFFF ])
      QCheck.(pair (int_range 0 max_int) (int_range 0 max_int))
  in
  QCheck.Test.make ~name:"is_888 implies all sources narrow" gen (fun u ->
      (not (is_888 u)) || all_srcs_narrow u)

let prop_8_32_32_excludes_888 =
  let gen =
    QCheck.map
      (fun (a, b) ->
        mk [ Uop.Reg Reg.Eax; Uop.Imm (b land 0xFFFF_FFFF) ]
          [ a land 0xFFFF_FFFF; b land 0xFFFF_FFFF ])
      QCheck.(pair (int_range 0 max_int) (int_range 0 max_int))
  in
  QCheck.Test.make ~name:"8-32-32 and 8-8-8 are disjoint" gen (fun u ->
      not (is_888 u && is_8_32_32 u))

let suite =
  ( "uop",
    [
      Alcotest.test_case "constructor validation" `Quick test_make_mismatch;
      Alcotest.test_case "default result" `Quick test_default_result;
      Alcotest.test_case "8-8-8 shape" `Quick test_is_888;
      Alcotest.test_case "8-32-32 shape" `Quick test_is_8_32_32;
      Alcotest.test_case "load shape uses address" `Quick test_load_shape_uses_address;
      Alcotest.test_case "carry not propagated" `Quick test_carry_not_propagated;
      Alcotest.test_case "width accessors" `Quick test_width_accessors;
      QCheck_alcotest.to_alcotest prop_888_sources;
      QCheck_alcotest.to_alcotest prop_8_32_32_excludes_888;
    ] )
