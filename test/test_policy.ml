(* Tests for the steering policy, driven through a synthetic rename-stage
   context with controlled predictor state. *)

module Config = Hc_sim.Config
module Steer = Hc_sim.Steer
module Policy = Hc_steering.Policy
module Bundle = Hc_predictors.Bundle
module Width_predictor = Hc_predictors.Width_predictor
module Carry_predictor = Hc_predictors.Carry_predictor
module Uop = Hc_isa.Uop
module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg

(* a context over a one-uop trace where the operands' believed widths
   come from their concrete values (as if all producers had written
   back); the policy itself only ever sees the view and index 0 *)
let ctx ?(scheme = Config.find_scheme "+IR") ?(flags_narrow = false)
    ?(occ_w = 0.3) ?(occ_n = 0.1) ?(backlog_w = 0) ?(backlog_n = 0)
    ?(ewma_w = 0.) ?(rob_occ = 0.3) ?(preds = Bundle.create ()) (u : Uop.t) =
  let cfg = Config.with_scheme Config.default scheme in
  let info _ k =
    Steer.src_info ~narrow:(Hc_isa.Width.is_narrow (List.nth u.Uop.src_vals k))
      ~known:true ~cluster:(Some Config.Wide)
  in
  let occupancy c = match c with Config.Wide -> occ_w | Config.Narrow -> occ_n in
  let ewma c = match c with Config.Wide -> ewma_w | Config.Narrow -> 0. in
  {
    Steer.cfg;
    preds;
    uops = Steer.uops_of_soa (Hc_isa.Uop_soa.of_uops [| u |]);
    source_info = info;
    flags_in_narrow = (fun () -> flags_narrow);
    occupancy_lt = (fun c limit -> occupancy c < limit);
    ready_backlog =
      (fun c -> match c with Config.Wide -> backlog_w | Config.Narrow -> backlog_n);
    backlog_ewma_gt = (fun c limit -> ewma c > limit);
    rob_occupancy_lt = (fun limit -> rob_occ < limit);
  }

let mk ?(op = Opcode.Add) ?(dst = Some Reg.Eax) ?(pc = 0x400000) srcs vals =
  Uop.make ~id:0 ~pc ~op ~srcs ~dst ~src_vals:vals ()

let trained_narrow_preds pc =
  let preds = Bundle.create () in
  for _ = 1 to 4 do
    Width_predictor.update preds.Bundle.width pc ~narrow:true
  done;
  preds

let trained_carry_preds pc =
  let preds = Bundle.create () in
  for _ = 1 to 4 do
    Carry_predictor.update preds.Bundle.carry pc ~carry_local:true;
    Width_predictor.update preds.Bundle.width pc ~narrow:true
  done;
  preds

let check_decision name expected got =
  Alcotest.(check string) name expected (Format.asprintf "%a" Steer.pp_decision got)

let test_no_helper_means_wide () =
  let u = mk [ Uop.Reg Reg.Eax; Uop.Imm 1 ] [ 1; 1 ] in
  check_decision "monolithic steers wide" "steer:wide"
    (Policy.decide (ctx ~scheme:Config.monolithic u) 0)

let test_fp_mul_div_always_wide () =
  List.iter
    (fun op ->
      let u = mk ~op [ Uop.Reg Reg.Eax; Uop.Reg Reg.Ecx ] [ 1; 2 ] in
      let preds = trained_narrow_preds u.Uop.pc in
      check_decision (Opcode.to_string op) "steer:wide"
        (Policy.decide (ctx ~preds u) 0))
    [ Opcode.Fp_add; Opcode.Fp_mul; Opcode.Fp_div; Opcode.Mul; Opcode.Div ]

let test_888_needs_confident_prediction () =
  let u = mk [ Uop.Reg Reg.Eax; Uop.Imm 1 ] [ 1; 1 ] in
  check_decision "cold predictor keeps it wide" "steer:wide"
    (Policy.decide (ctx u) 0);
  let preds = trained_narrow_preds u.Uop.pc in
  check_decision "confident narrow prediction steers" "steer:narrow(888)"
    (Policy.decide (ctx ~preds u) 0)

let test_888_rejects_wide_source () =
  let u = mk [ Uop.Reg Reg.Eax; Uop.Imm 1 ] [ 0x1_0000; 1 ] in
  let preds = trained_narrow_preds u.Uop.pc in
  check_decision "wide source blocks 8-8-8" "steer:wide"
    (Policy.decide (ctx ~preds u) 0)

let test_br_follows_flags () =
  let u = mk ~op:Opcode.Branch_cond ~dst:None [ Uop.Reg Reg.Eflags ] [ 0 ] in
  check_decision "flags in wide keeps branch wide" "steer:wide"
    (Policy.decide (ctx ~flags_narrow:false u) 0);
  check_decision "flags in narrow pulls branch in" "steer:narrow(br)"
    (Policy.decide (ctx ~flags_narrow:true u) 0);
  let no_br = Config.find_scheme "8_8_8" in
  check_decision "without BR branches stay wide" "steer:wide"
    (Policy.decide (ctx ~scheme:no_br ~flags_narrow:true u) 0)

let test_cr_steers_8_32_32 () =
  let u = mk [ Uop.Reg Reg.Esi; Uop.Imm 4 ] [ 0x0800_0000; 4 ] in
  check_decision "cold carry predictor keeps wide" "steer:wide"
    (Policy.decide (ctx u) 0);
  let preds = trained_carry_preds u.Uop.pc in
  check_decision "confident carry-local steers" "steer:narrow(cr)"
    (Policy.decide (ctx ~preds u) 0);
  let lr = Config.find_scheme "+LR" in
  check_decision "CR disabled in earlier schemes" "steer:wide"
    (Policy.decide (ctx ~scheme:lr ~preds u) 0)

let test_cr_load_needs_narrow_value () =
  let u =
    mk ~op:Opcode.Load [ Uop.Reg Reg.Esi; Uop.Imm 4 ] [ 0x0800_0000; 4 ]
  in
  let preds = Bundle.create () in
  for _ = 1 to 4 do
    Carry_predictor.update preds.Bundle.carry u.Uop.pc ~carry_local:true;
    (* loaded value predicted wide: the 8-bit register file cannot hold it *)
    Width_predictor.update preds.Bundle.width u.Uop.pc ~narrow:false
  done;
  check_decision "wide-loading CR load stays wide" "steer:wide"
    (Policy.decide (ctx ~preds u) 0);
  let preds = trained_carry_preds u.Uop.pc in
  check_decision "narrow-loading CR load steers" "steer:narrow(cr)"
    (Policy.decide (ctx ~preds u) 0)

let test_ir_split_trigger () =
  let u = mk ~op:Opcode.Store ~dst:None
      [ Uop.Reg Reg.Esi; Uop.Imm 4; Uop.Reg Reg.Eax ]
      [ 0x0800_0000; 4; 0x1_0000 ]
  in
  check_decision "no congestion, no split" "steer:wide" (Policy.decide (ctx u) 0);
  check_decision "sustained wide backlog splits the store" "split"
    (Policy.decide (ctx ~ewma_w:2.0 u) 0);
  check_decision "commit-blocked machine does not split" "steer:wide"
    (Policy.decide (ctx ~ewma_w:2.0 ~rob_occ:0.95 u) 0);
  let cp = Config.find_scheme "+CP" in
  check_decision "IR disabled in earlier schemes" "steer:wide"
    (Policy.decide (ctx ~scheme:cp ~ewma_w:2.0 u) 0)

let test_split_requires_idle_helper () =
  let u =
    mk ~op:Opcode.Xor [ Uop.Reg Reg.Eax; Uop.Reg Reg.Ecx ] [ 0x1_0000; 0x2_0000 ]
  in
  (* wide sources so neither 888 nor CR applies; IR eligibility on *)
  check_decision "busy helper blocks split" "steer:wide"
    (Policy.decide (ctx ~ewma_w:2.0 ~backlog_n:2 u) 0);
  check_decision "idle helper accepts split" "split"
    (Policy.decide (ctx ~ewma_w:2.0 u) 0);
  let nodest = Config.find_scheme "+IR(nodest)" in
  check_decision "nodest variant skips dest-producing uops" "steer:wide"
    (Policy.decide (ctx ~scheme:nodest ~ewma_w:2.0 u) 0)

(* A policy that names an operand or a uop outside the trace gets
   [Invalid_argument], not another uop's data: probed from inside a real
   run, where [source_info] is the rename stage's. *)
let test_out_of_range_rejected () =
  let p = Hc_trace.Profile.find_spec_int "gcc" in
  let tr = Hc_trace.Generator.generate_sliced ~length:200 p in
  let len = Hc_trace.Trace.length tr in
  let rejects f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let probed = ref 0 and all_rejected = ref true in
  let decide ctx i =
    let ns = Steer.nsrcs ctx i in
    let ok =
      rejects (fun () -> ctx.Steer.source_info i ns)
      && rejects (fun () -> ctx.Steer.source_info i (-1))
      && rejects (fun () -> ctx.Steer.source_info len 0)
      && rejects (fun () -> Steer.pc ctx len)
      && rejects (fun () -> Steer.op ctx (-1))
      && rejects (fun () -> Steer.nsrcs ctx len)
    in
    incr probed;
    if not ok then all_rejected := false;
    Policy.decide ctx i
  in
  let cfg = Config.with_scheme Config.default (Config.find_scheme "+IR") in
  ignore (Hc_sim.Pipeline.run ~cfg ~decide ~scheme_name:"probe" tr);
  Alcotest.(check bool) "every uop probed" true (!probed >= len);
  Alcotest.(check bool) "out-of-range reads raise Invalid_argument" true
    !all_rejected

let test_stack_has_baseline () =
  Alcotest.(check string) "baseline first" "baseline" (fst (List.hd Policy.stack));
  Alcotest.(check int) "eight entries" 8 (List.length Policy.stack)

let suite =
  ( "policy",
    [
      Alcotest.test_case "monolithic" `Quick test_no_helper_means_wide;
      Alcotest.test_case "fp/mul/div wide" `Quick test_fp_mul_div_always_wide;
      Alcotest.test_case "8-8-8 confidence gate" `Quick
        test_888_needs_confident_prediction;
      Alcotest.test_case "8-8-8 wide source" `Quick test_888_rejects_wide_source;
      Alcotest.test_case "BR follows flags" `Quick test_br_follows_flags;
      Alcotest.test_case "CR 8-32-32" `Quick test_cr_steers_8_32_32;
      Alcotest.test_case "CR loads need narrow data" `Quick
        test_cr_load_needs_narrow_value;
      Alcotest.test_case "IR trigger off when calm" `Quick test_ir_split_trigger;
      Alcotest.test_case "IR needs idle helper" `Quick test_split_requires_idle_helper;
      Alcotest.test_case "policy stack" `Quick test_stack_has_baseline;
      Alcotest.test_case "out-of-range operand rejected" `Quick
        test_out_of_range_rejected;
    ] )
