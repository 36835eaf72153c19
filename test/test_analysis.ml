(* Tests for trace-level analyses, on hand-built micro-traces with known
   answers plus invariants over generated traces. *)

module Analysis = Hc_trace.Analysis
module Trace = Hc_trace.Trace
module Generator = Hc_trace.Generator
module Profile = Hc_trace.Profile
module Uop = Hc_isa.Uop
module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg

let mk_trace uops =
  Trace.of_soa ~name:"micro" ~profile:(List.hd Profile.spec_int)
    (Hc_isa.Uop_soa.of_uops (Array.of_list uops))

let mk ~id ?(op = Opcode.Add) ?(dst = Some Reg.Eax) ?result srcs vals =
  Uop.make ~id ~pc:(0x400000 + (4 * id)) ~op ~srcs ~dst ~src_vals:vals ?result ()

let test_narrow_dependence_micro () =
  (* two ALU uops: one reads (narrow, narrow), one reads (wide, wide) via
     register operands => 50% narrow-dependent operands *)
  let t =
    mk_trace
      [
        mk ~id:0 [ Uop.Reg Reg.Eax; Uop.Reg Reg.Ecx ] [ 1; 2 ];
        mk ~id:1 [ Uop.Reg Reg.Edx; Uop.Reg Reg.Ebx ] [ 0x1_0000; 0x2_0000 ];
      ]
  in
  Alcotest.(check (float 1e-6)) "half narrow" 50. (Analysis.narrow_dependence_pct t)

let test_narrow_dependence_excludes () =
  (* loads, branches and immediates are outside the Fig 1 scope *)
  let t =
    mk_trace
      [
        mk ~id:0 ~op:Opcode.Load [ Uop.Reg Reg.Esi; Uop.Imm 4 ] [ 0x1_0000; 4 ];
        mk ~id:1 ~op:Opcode.Branch_cond ~dst:None [ Uop.Reg Reg.Eflags ] [ 0 ];
        mk ~id:2 [ Uop.Reg Reg.Eax; Uop.Imm 1 ] [ 1; 1 ];
      ]
  in
  (* only uop 2's single register operand counts, and it is narrow *)
  Alcotest.(check (float 1e-6)) "only ALU reg operands" 100.
    (Analysis.narrow_dependence_pct t)

let test_operand_mix_micro () =
  let t =
    mk_trace
      [
        (* one narrow source *)
        mk ~id:0 [ Uop.Reg Reg.Eax; Uop.Reg Reg.Ecx ] [ 1; 0x1_0000 ];
        (* two narrow, narrow result *)
        mk ~id:1 [ Uop.Reg Reg.Eax; Uop.Reg Reg.Ecx ] [ 1; 2 ];
        (* two narrow, wide result *)
        mk ~id:2 [ Uop.Reg Reg.Eax; Uop.Reg Reg.Ecx ] [ 200; 200 ];
        (* zero narrow *)
        mk ~id:3 [ Uop.Reg Reg.Eax; Uop.Reg Reg.Ecx ] [ 0x1_0000; 0x1_0000 ];
      ]
  in
  let mix = Analysis.operand_mix t in
  Alcotest.(check (float 1e-6)) "one narrow" 25. mix.Analysis.one_narrow;
  Alcotest.(check (float 1e-6)) "two narrow wide" 25.
    mix.Analysis.two_narrow_wide_result;
  Alcotest.(check (float 1e-6)) "two narrow narrow" 25.
    mix.Analysis.two_narrow_narrow_result

let test_carry_micro () =
  let t =
    mk_trace
      [
        (* local: Fig 10's example *)
        mk ~id:0 [ Uop.Reg Reg.Esi; Uop.Imm 0x1C ] [ 0xFFFC_4A02; 0x1C ];
        (* crossing *)
        mk ~id:1 [ Uop.Reg Reg.Esi; Uop.Imm 0x40 ] [ 0xFFFC_40F0; 0x40 ];
      ]
  in
  Alcotest.(check (float 1e-6)) "half local" 50.
    (Analysis.carry_not_propagated_pct t ~arith:true);
  Alcotest.(check (float 1e-6)) "no loads" 0.
    (Analysis.carry_not_propagated_pct t ~arith:false)

let test_distance_micro () =
  let t =
    mk_trace
      [
        mk ~id:0 ~dst:(Some Reg.Eax) [ Uop.Imm 1 ] [ 1 ] ~op:Opcode.Mov;
        mk ~id:1 ~dst:(Some Reg.Ecx) [ Uop.Imm 2 ] [ 2 ] ~op:Opcode.Mov;
        (* first consumer of eax at distance 2, of ecx at distance 1 *)
        mk ~id:2 ~dst:(Some Reg.Edx) [ Uop.Reg Reg.Eax; Uop.Reg Reg.Ecx ] [ 1; 2 ];
        (* re-reading eax later is NOT a first consumption *)
        mk ~id:3 ~dst:(Some Reg.Ebx) [ Uop.Reg Reg.Eax; Uop.Imm 0 ] [ 1; 0 ];
      ]
  in
  let h = Analysis.distance_histogram t in
  Alcotest.(check int) "two first-consumptions" 2 (Hc_stats.Histogram.total h);
  Alcotest.(check (float 1e-6)) "mean distance" 1.5 (Analysis.mean_distance t)

let test_mix_digest_sums () =
  let t = Generator.generate ~length:8_000 (Profile.find_spec_int "twolf") in
  let digest = Analysis.mix_digest t in
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. digest in
  Alcotest.(check bool)
    (Printf.sprintf "digest covers the stream (%.3f)" sum)
    true
    (sum > 0.95 && sum <= 1.01)

let test_ranges_on_generated () =
  List.iter
    (fun name ->
      let t = Generator.generate ~length:6_000 (Profile.find_spec_int name) in
      let pct = Analysis.narrow_dependence_pct t in
      Alcotest.(check bool) (name ^ " narrow-dep in range") true
        (pct >= 0. && pct <= 100.);
      let mix = Analysis.operand_mix t in
      let total =
        mix.Analysis.one_narrow +. mix.Analysis.two_narrow_wide_result
        +. mix.Analysis.two_narrow_narrow_result
      in
      Alcotest.(check bool) (name ^ " mix classes sum <= 100") true (total <= 100.01);
      Alcotest.(check bool) (name ^ " distances positive") true
        (Analysis.mean_distance t > 0.))
    [ "bzip2"; "gcc"; "mcf" ]

let suite =
  ( "analysis",
    [
      Alcotest.test_case "narrow dependence (micro)" `Quick
        test_narrow_dependence_micro;
      Alcotest.test_case "narrow dependence scope" `Quick
        test_narrow_dependence_excludes;
      Alcotest.test_case "operand mix (micro)" `Quick test_operand_mix_micro;
      Alcotest.test_case "carry locality (micro)" `Quick test_carry_micro;
      Alcotest.test_case "first-consumer distance (micro)" `Quick
        test_distance_micro;
      Alcotest.test_case "mix digest sums" `Quick test_mix_digest_sums;
      Alcotest.test_case "ranges on generated traces" `Quick
        test_ranges_on_generated;
    ] )
