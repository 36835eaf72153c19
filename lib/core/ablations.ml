module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Steer = Hc_sim.Steer
module Uop_soa = Hc_isa.Uop_soa
module Trace = Hc_trace.Trace
module Opcode = Hc_isa.Opcode
module Width = Hc_isa.Width
module Table = Hc_stats.Table
module Summary = Hc_stats.Summary

type row = {
  variant : string;
  speedup_pct : float;
  steered_pct : float;
  copy_pct : float;
  fatal_pct : float;
}

type t = {
  id : string;
  title : string;
  what : string;
  run : length:int -> row list;
}

(* [decide] is built per trace, so an oracle can be handed that trace's
   ground truth *)
let measure ~length ~variant ?(decide = fun _ -> Hc_steering.Policy.decide) cfg =
  (* one task per benchmark: trace generation and both simulations are
     self-contained, so the twelve benchmarks fan out across the pool *)
  let per_bench =
    Domain_pool.map_list (Domain_pool.get ())
      (fun p ->
        let tr = Generator.generate_sliced ~length p in
        let base =
          Pipeline.run ~cfg:Config.baseline ~decide:Hc_steering.Policy.decide
            ~scheme_name:"baseline" tr
        in
        let m =
          Pipeline.run ~cfg ~decide:(decide (Trace.soa tr)) ~scheme_name:variant tr
        in
        ( Metrics.speedup_pct ~baseline:base m,
          Metrics.steered_pct m,
          Metrics.copy_pct m,
          Metrics.wpred_fatal_pct m ))
      Profile.spec_int
  in
  let mean f = Summary.arithmetic_mean (List.map f per_bench) in
  {
    variant;
    speedup_pct = mean (fun (s, _, _, _) -> s);
    steered_pct = mean (fun (_, s, _, _) -> s);
    copy_pct = mean (fun (_, _, c, _) -> c);
    fatal_pct = mean (fun (_, _, _, f) -> f);
  }

let full_stack = Config.with_scheme Config.default (Config.find_scheme "+IR")

let width_sweep ~length =
  List.map
    (fun bits ->
      measure ~length ~variant:(Printf.sprintf "width=%d" bits)
        { full_stack with Config.narrow_bits = bits })
    [ 4; 8; 12; 16; 24 ]

let clock_ratio ~length =
  [
    measure ~length ~variant:"helper@2x" full_stack;
    measure ~length ~variant:"helper@1x"
      { full_stack with Config.helper_fast_clock = false };
  ]

let confidence ~length =
  [
    measure ~length ~variant:"gated" full_stack;
    measure ~length ~variant:"ungated"
      { full_stack with Config.confidence_gate = false };
  ]

(* Oracle steering: replace the predictor-driven 8-8-8 and CR tests with
   the trace's ground truth, handed in as [soa] (the policy still respects
   structural restrictions). This bounds what a perfect width predictor
   could buy. *)
let oracle_decide soa (ctx : Steer.ctx) i =
  let cfg = ctx.Steer.cfg in
  let scheme = cfg.Config.scheme in
  let bits = cfg.Config.narrow_bits in
  let op = Steer.op ctx i in
  if not (scheme.Config.helper && Opcode.helper_capable op) then Steer.steer_wide
  else if Opcode.is_branch op then begin
    if scheme.Config.br && Steer.reads_flags ctx i && ctx.Steer.flags_in_narrow ()
    then Steer.steer_br
    else Steer.steer_wide
  end
  else if op = Opcode.Store then Steer.steer_wide
  else if scheme.Config.s888 && Uop_soa.is_888_bits ~bits soa i then
    Steer.steer_888
  else if
    scheme.Config.cr && Uop_soa.carry_not_propagated_bits ~bits soa i
    && (op <> Opcode.Load || Width.is_narrow_bits ~bits (Uop_soa.result soa i))
  then Steer.steer_cr
  else
    (* fall back to the real policy for the imbalance machinery *)
    Hc_steering.Policy.decide ctx i

let oracle ~length =
  [
    measure ~length ~variant:"predicted" full_stack;
    measure ~length ~variant:"oracle" ~decide:oracle_decide full_stack;
  ]

let copy_latency ~length =
  List.map
    (fun lat ->
      measure ~length ~variant:(Printf.sprintf "copy=%dcyc" lat)
        { full_stack with Config.copy_latency = lat })
    [ 1; 2; 4 ]

(* Structural substrates vs trace-carried ground truth: the same run with
   the modeled memory hierarchy, gshare and trace cache switched in. *)
let substrates ~length =
  [
    measure ~length ~variant:"trace-flags" full_stack;
    measure ~length ~variant:"cache-sim"
      { full_stack with Config.memory_model = Config.Mem_cache_sim };
    measure ~length ~variant:"gshare"
      { full_stack with Config.branch_model = Config.Br_gshare };
    measure ~length ~variant:"trace-cache"
      { full_stack with Config.frontend_model = Config.Fe_trace_cache };
    measure ~length ~variant:"all-modeled"
      { full_stack with
        Config.memory_model = Config.Mem_cache_sim;
        branch_model = Config.Br_gshare;
        frontend_model = Config.Fe_trace_cache };
  ]

let regfile_pressure ~length =
  List.map
    (fun regs ->
      measure ~length ~variant:(Printf.sprintf "regs=%d" regs)
        { full_stack with Config.wide_regs = regs; narrow_regs = regs })
    [ 128; 48; 24 ]

let flush_penalty ~length =
  List.map
    (fun pen ->
      measure ~length ~variant:(Printf.sprintf "flush=%dcyc" pen)
        { full_stack with Config.width_flush_penalty = pen })
    [ 0; 4; 12 ]

let all =
  [
    { id = "width"; title = "Helper datapath width";
      what =
        "the 8-bit design point vs the paper's proposed wider helper \
         (clock held at 2x throughout)";
      run = width_sweep };
    { id = "clock"; title = "Helper clock ratio";
      what = "the 2x fireball clock of section 2.2 vs an equal-rate helper";
      run = clock_ratio };
    { id = "confidence"; title = "Confidence gating";
      what = "the 2-bit confidence estimator that cut recovery 2.11% to 0.83%";
      run = confidence };
    { id = "oracle"; title = "Oracle width knowledge";
      what = "perfect width/carry information at rename: the predictor headroom";
      run = oracle };
    { id = "copylat"; title = "Inter-cluster copy latency";
      what = "sensitivity to the copy hop the steering schemes minimize";
      run = copy_latency };
    { id = "flushpen"; title = "Width-flush penalty";
      what = "sensitivity to the squash-and-resteer recovery cost";
      run = flush_penalty };
    { id = "substrates"; title = "Structural substrates";
      what =
        "trace-carried hit/miss and misprediction ground truth vs the \
         modeled cache hierarchy, gshare and trace cache";
      run = substrates };
    { id = "regfile"; title = "Physical register file pressure";
      what = "rename stalls as the per-cluster register files shrink";
      run = regfile_pressure };
  ]

let find id =
  match List.find_opt (fun a -> a.id = id) all with
  | Some a -> a
  | None -> raise Not_found

let render rows =
  let table =
    Table.create
      [ "variant"; "speedup (%)"; "steered (%)"; "copies (%)"; "fatal (%)" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [ r.variant;
          Printf.sprintf "%+.2f" r.speedup_pct;
          Printf.sprintf "%.1f" r.steered_pct;
          Printf.sprintf "%.1f" r.copy_pct;
          Printf.sprintf "%.2f" r.fatal_pct ])
    rows;
  Table.render table
