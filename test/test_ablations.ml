(* Tests for the width-parameterized narrowness API (the wider-helper
   extension) and the ablation harness. *)

module Detector = Hc_isa.Detector
module Width = Hc_isa.Width
module Uop = Hc_isa.Uop
module Uop_soa = Hc_isa.Uop_soa
module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Ablations = Hc_core.Ablations

let test_detector_bits () =
  Alcotest.(check bool) "0x1234 wide at 8" false (Detector.narrow ~bits:8 0x1234);
  Alcotest.(check bool) "0x1234 narrow at 16" true (Detector.narrow ~bits:16 0x1234);
  Alcotest.(check bool) "negative at 16" true
    (Detector.narrow ~bits:16 0xFFFF_8000);
  Alcotest.(check bool) "0x8000 narrow at 16 (zero run above)" true
    (Detector.narrow ~bits:16 0x8000);
  Alcotest.(check bool) "boundary at 16" false (Detector.narrow ~bits:16 0x1_0000);
  Alcotest.(check bool) "32 bits accepts everything" true
    (Detector.narrow ~bits:32 0xDEAD_BEEF);
  Alcotest.check_raises "bits 0" (Invalid_argument "Detector.narrow: bits out of [1,32]")
    (fun () -> ignore (Detector.narrow ~bits:0 1))

let test_bits_consistency () =
  (* the 8-bit parameterization must agree with the fixed-width API *)
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "0x%X agrees" v)
        (Width.is_narrow v)
        (Width.is_narrow_bits ~bits:8 v))
    [ 0; 1; 0xFF; 0x100; 0xFFFF_FF00; 0xFFFF_FE00; 0x8000_0000 ]

let test_uop_bits () =
  let u =
    Uop.make ~id:0 ~pc:0 ~op:Opcode.Add
      ~srcs:[ Uop.Reg Reg.Eax; Uop.Imm 0x1000 ]
      ~dst:(Some Reg.Eax) ~src_vals:[ 0x200; 0x1000 ] ()
  in
  Alcotest.(check bool) "not 8-8-8 at 8 bits" false (Uop_soa.is_888_bits ~bits:8 (Uop_soa.of_uops [| u |]) 0);
  Alcotest.(check bool) "16-16-16 at 16 bits" true (Uop_soa.is_888_bits ~bits:16 (Uop_soa.of_uops [| u |]) 0);
  let cr =
    Uop.make ~id:1 ~pc:0 ~op:Opcode.Add
      ~srcs:[ Uop.Reg Reg.Esi; Uop.Imm 0x20 ]
      ~dst:(Some Reg.Eax) ~src_vals:[ 0x0800_0000; 0x20 ] ()
  in
  Alcotest.(check bool) "8-32-32 at 8" true (Uop_soa.is_8_32_32_bits ~bits:8 (Uop_soa.of_uops [| cr |]) 0);
  Alcotest.(check bool) "carry local at 8" true
    (Uop_soa.carry_not_propagated_bits ~bits:8 (Uop_soa.of_uops [| cr |]) 0);
  Alcotest.(check bool) "carry local at 16" true
    (Uop_soa.carry_not_propagated_bits ~bits:16 (Uop_soa.of_uops [| cr |]) 0)

let test_wider_helper_steers_more () =
  let p = Hc_trace.Profile.find_spec_int "gcc" in
  let tr = Hc_trace.Generator.generate_sliced ~length:5_000 p in
  let run bits =
    let cfg =
      { (Config.with_scheme Config.default (Config.find_scheme "+CR")) with
        Config.narrow_bits = bits }
    in
    Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide
      ~scheme_name:(Printf.sprintf "w%d" bits) tr
  in
  let at8 = run 8 and at16 = run 16 in
  Alcotest.(check bool)
    (Printf.sprintf "16-bit helper hosts more work (%.1f%% vs %.1f%%)"
       (Metrics.steered_pct at16) (Metrics.steered_pct at8))
    true
    (Metrics.steered_pct at16 > Metrics.steered_pct at8);
  Alcotest.(check int) "still commits everything" (Hc_trace.Trace.length tr)
    at16.Metrics.committed

let test_slow_helper_still_correct () =
  let p = Hc_trace.Profile.find_spec_int "gzip" in
  let tr = Hc_trace.Generator.generate_sliced ~length:3_000 p in
  let cfg =
    { (Config.with_scheme Config.default (Config.find_scheme "+IR")) with
      Config.helper_fast_clock = false }
  in
  let m =
    Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:"1x" tr
  in
  Alcotest.(check int) "commits everything" (Hc_trace.Trace.length tr)
    m.Metrics.committed

let test_registry () =
  Alcotest.(check int) "eight ablations" 8 (List.length Ablations.all);
  Alcotest.(check string) "find width" "width" (Ablations.find "width").Ablations.id;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Ablations.find "nonesuch"))

let test_one_ablation_runs () =
  let rows = (Ablations.find "clock").Ablations.run ~length:2_000 in
  Alcotest.(check int) "two variants" 2 (List.length rows);
  List.iter
    (fun (r : Ablations.row) ->
      Alcotest.(check bool) (r.Ablations.variant ^ " finite") true
        (Float.is_finite r.Ablations.speedup_pct))
    rows;
  Alcotest.(check bool) "renders" true
    (String.length (Ablations.render rows) > 0)

let suite =
  ( "ablations",
    [
      Alcotest.test_case "detector bits" `Quick test_detector_bits;
      Alcotest.test_case "8-bit consistency" `Quick test_bits_consistency;
      Alcotest.test_case "uop shape bits" `Quick test_uop_bits;
      Alcotest.test_case "wider helper steers more" `Quick
        test_wider_helper_steers_more;
      Alcotest.test_case "slow helper correct" `Quick test_slow_helper_still_correct;
      Alcotest.test_case "registry" `Quick test_registry;
      Alcotest.test_case "clock ablation runs" `Slow test_one_ablation_runs;
    ] )
