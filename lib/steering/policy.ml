module Opcode = Hc_isa.Opcode
module Config = Hc_sim.Config
module Steer = Hc_sim.Steer
module Width_predictor = Hc_predictors.Width_predictor
module Carry_predictor = Hc_predictors.Carry_predictor
module Bundle = Hc_predictors.Bundle

(* The believed width of each source, as the rename stage sees it (actual
   when known, predicted otherwise), queried operand by operand — the
   whole decision path allocates nothing, so it runs on the simulator's
   per-uop hot path as-is. *)
let rec sources_narrow_from (ctx : Steer.ctx) i k n =
  k >= n
  || Steer.si_narrow (ctx.Steer.source_info i k)
     && sources_narrow_from ctx i (k + 1) n

let confident_narrow (ctx : Steer.ctx) pc =
  let width = ctx.Steer.preds.Bundle.width in
  Width_predictor.predict_narrow width pc
  && ((not ctx.Steer.cfg.Config.confidence_gate)
     || Width_predictor.predict_confident width pc)

(* §3.2: every source believed narrow, result predicted narrow with high
   confidence. Uops with no observable result only need narrow sources. *)
let decide_888 (ctx : Steer.ctx) i op =
  if not (sources_narrow_from ctx i 0 (Steer.nsrcs ctx i)) then false
  else if not (Steer.has_dest ctx i || Opcode.writes_flags op) then true
  else confident_narrow ctx (Steer.pc ctx i)

(* §3.5: 8-32-32 shape as believed at rename — exactly one wide source —
   plus a confident carry-local prediction. Loads also need the loaded
   value predicted narrow: the helper register file is 8 bits wide and
   there is no upper-24 reconstruction tag for memory data. *)
let decide_cr (ctx : Steer.ctx) i op =
  Opcode.carry_eligible op
  && Steer.nsrcs ctx i = 2
  && Steer.si_narrow (ctx.Steer.source_info i 0)
     <> Steer.si_narrow (ctx.Steer.source_info i 1)
  &&
  let pc = Steer.pc ctx i in
  let carry = ctx.Steer.preds.Bundle.carry in
  Carry_predictor.predict_carry_local carry pc
  && ((not ctx.Steer.cfg.Config.confidence_gate)
     || Carry_predictor.predict_confident carry pc)
  && (op <> Opcode.Load || confident_narrow ctx pc)

(* §3.7: the wide backend is congested relative to the helper, and this uop
   can be cracked into byte lanes. *)
let decide_ir (ctx : Steer.ctx) op =
  let eligible =
    match ctx.Steer.cfg.Config.scheme.Config.ir with
    | Config.Ir_off -> false
    | Config.Ir_all ->
      (* carry-rippling splits serialize their four lanes and delay any
         consumer (a flags-dependent branch for cmp); the profitable
         splits are the independent byte-lane ones *)
      (match op with
       | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Mov | Opcode.Store
       | Opcode.Add | Opcode.Sub -> true
       | _ -> false)
    | Config.Ir_no_dest -> op = Opcode.Store
  in
  (* splitting trades eight helper issue slots for one wide slot plus four
     copies: worth it exactly when the wide scheduler has a ready backlog
     (the NREADY signal of section 3.7) while the helper has headroom *)
  eligible
  && ctx.Steer.backlog_ewma_gt Config.Wide 1.0
  && ctx.Steer.ready_backlog Config.Narrow = 0
  && ctx.Steer.occupancy_lt Config.Narrow 0.35
  && ctx.Steer.rob_occupancy_lt 0.8

(* §3.3: a conditional branch follows its flags producer into the helper
   cluster (the branch target was resolved in the frontend, so the flags
   value is the only input the backend needs) *)
let decide_br (ctx : Steer.ctx) op =
  if ctx.Steer.cfg.Config.scheme.Config.br && Opcode.reads_flags op
     && ctx.Steer.flags_in_narrow ()
  then Steer.steer_br
  else Steer.steer_wide

let decide (ctx : Steer.ctx) i =
  let scheme = ctx.Steer.cfg.Config.scheme in
  let op = Steer.op ctx i in
  if not (scheme.Config.helper && Opcode.helper_capable op) then Steer.steer_wide
  else if Opcode.is_branch op then decide_br ctx op
  else if op = Opcode.Store then
    if decide_ir ctx op then Steer.Split else Steer.steer_wide
  else begin
    if scheme.Config.s888 && decide_888 ctx i op then Steer.steer_888
    else if scheme.Config.cr && decide_cr ctx i op then Steer.steer_cr
    else if decide_ir ctx op then Steer.Split
    else Steer.steer_wide
  end

(* Oracle counterpart of [decide]'s 8-8-8 rule: instead of predictor
   beliefs, steer on a static proof that the uop is all-narrow. The proof
   comes from outside (the [Hc_analysis] known-bits pass) as a plain
   predicate on uop ids so this library keeps zero dependency on the
   analysis. A provably-narrow uop can never trigger a width-violation
   recovery, so the resulting run is the predictor-free steering bound.
   [reason] tags the proof's flavor: R888 for the forward known-bits
   proof (ground truth is narrow, so the pipeline's dynamic check stays
   honest), Rlive for the bidirectional dead-width proof (values may be
   wide, only the observable bits are narrow — proof-carried, not
   dynamically checked). *)
let static_oracle ?(reason = Steer.R888) ~provably_narrow (ctx : Steer.ctx) i =
  let op = Steer.op ctx i in
  if not (ctx.Steer.cfg.Config.scheme.Config.helper && Opcode.helper_capable op)
  then Steer.steer_wide
  else if Opcode.is_branch op || op = Opcode.Store then Steer.steer_wide
  else if provably_narrow (Steer.id ctx i) then Steer.steer_narrow_of reason
  else Steer.steer_wide

let stack = ("baseline", Config.monolithic) :: Config.scheme_stack
