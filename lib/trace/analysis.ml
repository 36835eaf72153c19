module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg
module Uop_soa = Hc_isa.Uop_soa
module Width = Hc_isa.Width
module Histogram = Hc_stats.Histogram

(* Every statistic walks the trace's packed columns by index. *)

let eflags = Reg.to_index Reg.Eflags

(* regular integer-ALU uops: the population of Fig 1 and the §1 mix *)
let regular_alu op =
  Opcode.exec_class op = Opcode.Int_alu && op <> Opcode.Copy && op <> Opcode.Nop

(* Fig 1 counts the register operands of regular (integer-ALU) uops: the
   paper pairs the figure with its ALU operand-width breakdown (39.4% one
   narrow / 3.3% + 43.5% two narrow), and the levels only line up under
   that reading. Address bases of loads/stores, flags reads and FP operands
   are outside the figure's scope. *)
let narrow_dependence_pct t =
  let soa = Trace.soa t in
  let total = ref 0 and narrow = ref 0 in
  for i = 0 to Uop_soa.length soa - 1 do
    if regular_alu (Uop_soa.op soa i) then begin
      let lo = Uop_soa.src_base soa i in
      for j = lo to lo + Uop_soa.nsrcs soa i - 1 do
        let r = Uop_soa.src_reg soa j in
        if r >= 0 && r <> eflags then begin
          incr total;
          if Width.is_narrow (Uop_soa.src_val soa j) then incr narrow
        end
      done
    end
  done;
  if !total = 0 then 0. else 100. *. float_of_int !narrow /. float_of_int !total

type operand_mix = {
  one_narrow : float;
  two_narrow_wide_result : float;
  two_narrow_narrow_result : float;
}

let operand_mix t =
  let soa = Trace.soa t in
  let total = ref 0 and one = ref 0 and two_wide = ref 0 and two_narrow = ref 0 in
  for i = 0 to Uop_soa.length soa - 1 do
    if regular_alu (Uop_soa.op soa i) && Uop_soa.nsrcs soa i = 2 then begin
      incr total;
      let lo = Uop_soa.src_base soa i in
      let na = Width.is_narrow (Uop_soa.src_val soa lo)
      and nb = Width.is_narrow (Uop_soa.src_val soa (lo + 1)) in
      if na && nb then
        if Width.is_narrow (Uop_soa.result soa i) then incr two_narrow
        else incr two_wide
      else if na || nb then incr one
    end
  done;
  let pct c = if !total = 0 then 0. else 100. *. float_of_int c /. float_of_int !total in
  {
    one_narrow = pct !one;
    two_narrow_wide_result = pct !two_wide;
    two_narrow_narrow_result = pct !two_narrow;
  }

let carry_not_propagated_pct t ~arith =
  let soa = Trace.soa t in
  let wanted op =
    if arith then Opcode.carry_eligible op && not (Opcode.is_memory op)
    else op = Opcode.Load
  in
  let total = ref 0 and local = ref 0 in
  for i = 0 to Uop_soa.length soa - 1 do
    let op = Uop_soa.op soa i in
    if wanted op && Opcode.carry_eligible op
       && Uop_soa.is_8_32_32_bits ~bits:8 soa i
    then begin
      incr total;
      if Uop_soa.carry_not_propagated_bits ~bits:8 soa i then incr local
    end
  done;
  if !total = 0 then 0. else 100. *. float_of_int !local /. float_of_int !total

(* Producer -> first consumer: the distance that matters for copy
   prefetching (§3.6) is how long a freshly produced value waits before its
   first use. Later re-reads of long-lived registers (stack/frame pointers)
   are irrelevant to the prefetch window and would swamp the tail. *)
let distance_histogram t =
  let soa = Trace.soa t in
  let h = Histogram.create () in
  let pending = Array.make Reg.count (-1) in
  for i = 0 to Uop_soa.length soa - 1 do
    let id = Uop_soa.id soa i in
    let lo = Uop_soa.src_base soa i in
    for j = lo to lo + Uop_soa.nsrcs soa i - 1 do
      let r = Uop_soa.src_reg soa j in
      if r >= 0 && r <> eflags && pending.(r) >= 0 then begin
        Histogram.observe h (id - pending.(r));
        pending.(r) <- -1
      end
    done;
    let d = Uop_soa.dst_index soa i in
    if d >= 0 then pending.(d) <- id
  done;
  h

let mean_distance t = Histogram.mean (distance_histogram t)

let mix_digest t =
  let soa = Trace.soa t in
  let n = float_of_int (max 1 (Trace.length t)) in
  let count pred =
    let c = ref 0 in
    for i = 0 to Uop_soa.length soa - 1 do
      if pred (Uop_soa.op soa i) then incr c
    done;
    float_of_int !c /. n
  in
  [
    ("load", count (fun op -> op = Opcode.Load));
    ("store", count (fun op -> op = Opcode.Store));
    ("branch", count Opcode.is_branch);
    ("mul_div", count (fun op -> op = Opcode.Mul || op = Opcode.Div));
    ("fp", count Opcode.is_fp);
    ("alu", count (fun op ->
         Opcode.exec_class op = Opcode.Int_alu && not (Opcode.is_branch op)));
  ]
