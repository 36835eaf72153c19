(* Trace tooling: generate, save, load, inspect.

     hc_trace generate --benchmark gcc --length 10000 --out gcc.trace
     hc_trace generate --benchmark gcc --format binary --out gcc.hct
     hc_trace dump --file gcc.trace --head 20
     hc_trace stats --file gcc.trace
     hc_trace run --file gcc.trace --scheme +CR

   The text format (see Hc_trace.Trace_io) is the interchange point for
   running the evaluation on externally captured traces; --format binary
   writes the compact Hc_trace.Codec stream instead. Loading dispatches
   on the magic bytes, so every subcommand reads both. *)

module Profile = Hc_trace.Profile
module Trace = Hc_trace.Trace
module Trace_io = Hc_trace.Trace_io
module Analysis = Hc_trace.Analysis
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Sink = Hc_obs.Sink
module Chrome_trace = Hc_obs.Chrome_trace
module Export = Hc_core.Export
module Artifact_cache = Hc_core.Artifact_cache
module Obs_setup = Hc_core.Obs_setup

open Cmdliner

let benchmark_arg =
  Arg.(
    value & opt string "gcc"
    & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"SPEC benchmark personality.")

let length_arg =
  Arg.(
    value & opt int 10_000
    & info [ "length" ] ~docv:"UOPS" ~doc:"Trace length in uops.")

let file_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"PATH" ~doc:"Trace file.")

let profile_of name =
  try Profile.find_spec_int name
  with Not_found ->
    Printf.eprintf "unknown benchmark %S\n" name;
    exit 1

let generate benchmark length out format cache_dir =
  let profile = profile_of benchmark in
  let trace =
    Artifact_cache.trace_or_generate (Artifact_cache.of_cli cache_dir) ~profile
      ~length
  in
  ( match format with
  | `Text -> Trace_io.save trace out
  | `Binary -> Trace_io.save_binary trace out );
  Printf.printf "wrote %s (%d uops)\n" out (Trace.length trace)

let dump file head =
  let trace = Trace_io.load file in
  let n = min head (Trace.length trace) in
  for i = 0 to n - 1 do
    Format.printf "%a@." Hc_isa.Uop.pp (Hc_isa.Uop_soa.to_uop (Trace.soa trace) i)
  done

let stats file =
  let trace = Trace_io.load file in
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

let run file scheme trace_out metrics_interval interval_out trace_buffer
    metrics_out obs span_log prom_out =
  let obs_t = Obs_setup.setup ~obs ?span_log ?prom_out () in
  let trace = Trace_io.load file in
  let cfg =
    if scheme = "ics05" then Config.ics05
    else
      match Config.find_scheme scheme with
      | s -> Config.with_scheme Config.default s
      | exception Not_found ->
        Printf.eprintf "unknown scheme %S\n" scheme;
        exit 1
  in
  (* same telemetry surface as hc_sim: externally captured traces get
     the full artifact set (Chrome trace, interval CSV, metrics JSON) *)
  let sink =
    if trace_out <> None || metrics_interval > 0 then
      Some
        (Sink.create ~ring_capacity:trace_buffer ~interval:metrics_interval
           ~tracing:(trace_out <> None) ())
    else None
  in
  let base =
    Pipeline.run ~cfg:Config.baseline ~decide:Hc_steering.Policy.decide
      ~scheme_name:"baseline" trace
  in
  let m =
    Pipeline.run ?sink ~cfg ~decide:Hc_steering.Policy.decide
      ~scheme_name:scheme trace
  in
  Format.printf "%a@." Metrics.pp m;
  Format.printf "speedup over baseline: %+.2f%%@."
    (Metrics.speedup_pct ~baseline:base m);
  ( match metrics_out with
  | Some path ->
    Format.printf "metrics: wrote %s@." (Export.write_metrics_json ~path m)
  | None -> () );
  ( match sink with
  | None -> ()
  | Some sink ->
    ( match trace_out with
    | Some path ->
      let written =
        Chrome_trace.write
          ~ring:(Sink.events_pushed sink, Sink.events_dropped sink)
          ~stage_spans:(Obs_setup.spans ()) ~path ~events:(Sink.events sink)
          ~samples:(Sink.samples sink) ()
      in
      Format.printf "trace: wrote %s (%s)@." written (Sink.summary sink)
    | None -> () );
    ( match Sink.dropped_warning sink with
    | Some w -> Printf.eprintf "%s\n%!" w
    | None -> () );
    if Sink.interval sink > 0 then begin
      let path =
        match interval_out, trace_out with
        | Some p, _ -> p
        | None, Some t -> Filename.remove_extension t ^ ".intervals.csv"
        | None, None -> "intervals.csv"
      in
      let samples = Sink.samples sink in
      let written = Export.write_intervals_csv ~path samples in
      Format.printf "intervals: wrote %s (%d samples of %d ticks)@." written
        (List.length samples) (Sink.interval sink)
    end );
  Obs_setup.finish obs_t

let generate_cmd =
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
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Artifact-cache root consulted before generating (default: \
             $(b,HC_CACHE_DIR) or $(b,_hc_cache); $(b,none) disables).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"generate a synthetic trace and save it")
    Term.(const generate $ benchmark_arg $ length_arg $ out $ format $ cache_dir)

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

let run_cmd =
  let scheme =
    Arg.(
      value & opt string "+IR"
      & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc:"Steering scheme.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record per-uop pipeline events and write a Chrome trace-event \
             JSON to $(docv).")
  in
  let metrics_interval =
    Arg.(
      value & opt int 0
      & info [ "metrics-interval" ] ~docv:"TICKS"
          ~doc:
            "Sample the interval metrics time series every $(docv) fast \
             ticks (0 disables).")
  in
  let interval_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "interval-out" ] ~docv:"FILE"
          ~doc:
            "Where to write the interval CSV (default: derived from \
             $(b,--trace-out), else $(b,intervals.csv)).")
  in
  let trace_buffer =
    Arg.(
      value & opt int 65_536
      & info [ "trace-buffer" ] ~docv:"EVENTS"
          ~doc:
            "Event ring capacity; older events are overwritten once full.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the scheme run's full metrics as JSON (the format \
             $(b,hc_report) reads and diffs) to $(docv).")
  in
  let obs =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:"Enable the observability layer (registry + span collector).")
  in
  let span_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "span-log" ] ~docv:"FILE"
          ~doc:"Write recorded stage spans as JSONL to $(docv).")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ] ~docv:"FILE"
          ~doc:
            "Write the final registry scrape as Prometheus text exposition \
             to $(docv).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"simulate a saved trace under a scheme")
    Term.(
      const run $ file_arg $ scheme $ trace_out $ metrics_interval
      $ interval_out $ trace_buffer $ metrics_out $ obs $ span_log $ prom_out)

let cmd =
  Cmd.group
    (Cmd.info "hc_trace" ~doc:"trace generation, inspection and interchange")
    [ generate_cmd; dump_cmd; stats_cmd; run_cmd ]

let () = exit (Cmd.eval cmd)
