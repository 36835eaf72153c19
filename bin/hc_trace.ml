(* Trace tooling: generate, save, load, inspect.

     hc_trace generate --benchmark gcc --length 10000 --out gcc.trace
     hc_trace generate --benchmark gcc --format binary --out gcc.hct
     hc_trace dump --file gcc.trace --head 20
     hc_trace stats --file gcc.trace

   The text format (see Hc_trace.Trace_io) is the interchange point for
   running the evaluation on externally captured traces (simulate one
   with hc_sim --trace); --format binary writes the compact
   Hc_trace.Codec stream instead. Loading dispatches on the magic bytes,
   so every reader takes both. *)

module Trace = Root.Hc_trace.Trace
module Trace_io = Root.Hc_trace.Trace_io
module Analysis = Root.Hc_trace.Analysis
module Artifact_cache = Hc_core.Artifact_cache

open Cmdliner

let file_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"PATH" ~doc:"Trace file.")

let generate benchmark length out format cache =
  let trace =
    Artifact_cache.trace_or_generate cache ~profile:(Cli.profile benchmark)
      ~length
  in
  ( match format with
  | `Text -> Trace_io.save trace out
  | `Binary -> Trace_io.save_binary trace out );
  Printf.printf "wrote %s (%d uops)\n" out (Trace.length trace)

let load = Cli.load_trace ~tool:"hc_trace"

let dump file head =
  let trace = load file in
  let n = min head (Trace.length trace) in
  for i = 0 to n - 1 do
    Format.printf "%a@." Hc_isa.Uop.pp (Hc_isa.Uop_soa.to_uop (Trace.soa trace) i)
  done

let stats file =
  let trace = load file in
  Format.printf "%a@." Trace.pp_summary trace;
  let mix = Analysis.operand_mix trace in
  Printf.printf "narrow-dependent ALU operands: %.1f%%\n"
    (Analysis.narrow_dependence_pct trace);
  Printf.printf "operand mix: 1-narrow %.1f%%, 2n-wide %.1f%%, 2n-narrow %.1f%%\n"
    mix.Analysis.one_narrow mix.Analysis.two_narrow_wide_result
    mix.Analysis.two_narrow_narrow_result;
  Printf.printf "carry-local: arith %.1f%%, loads %.1f%%\n"
    (Analysis.carry_not_propagated_pct trace ~arith:true)
    (Analysis.carry_not_propagated_pct trace ~arith:false);
  Printf.printf "mean producer-consumer distance: %.2f uops\n"
    (Analysis.mean_distance trace)

let generate_cmd =
  let benchmark =
    Arg.(
      value & opt string "gcc"
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"SPEC benchmark personality.")
  in
  let out =
    Arg.(
      value & opt string "trace.txt"
      & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Output path.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("binary", `Binary) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output encoding: $(b,text) (the line-oriented interchange \
             format) or $(b,binary) (the compact CRC-checked codec \
             stream; ~5-10x smaller, ~20x faster to load).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"generate a synthetic trace and save it")
    Term.(
      const generate $ benchmark $ Cli.length ~default:10_000 $ out $ format
      $ Cli.cache_dir)

let dump_cmd =
  let head =
    Arg.(
      value & opt int 20
      & info [ "head" ] ~docv:"N" ~doc:"How many uops to print.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"print the first uops of a saved trace")
    Term.(const dump $ file_arg $ head)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"workload-characterization statistics of a trace")
    Term.(const stats $ file_arg)

let cmd =
  Cmd.group
    (Cmd.info "hc_trace" ~doc:"trace generation, inspection and interchange")
    [ generate_cmd; dump_cmd; stats_cmd ]

let () = exit (Cmd.eval cmd)
