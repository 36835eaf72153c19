(* Command-line front door to the simulator: run one workload under one
   steering scheme and print the metrics (optionally with the energy
   breakdown and/or telemetry artifacts). The workload is a generated
   SPEC profile, or with --trace a saved text or binary trace.

     hc_sim --benchmark gcc --scheme +CR
     hc_sim --benchmark mcf --scheme baseline --length 100000 --power
     hc_sim --trace gcc.hct --scheme +CR      # hc_trace generate's output
     hc_sim --benchmark gcc --scheme +IR --trace-out t.json \
            --metrics-interval 1000            # Perfetto trace + time series *)

module Config = Root.Hc_sim.Config
module Pipeline = Root.Hc_sim.Pipeline
module Metrics = Root.Hc_sim.Metrics
module Accounting = Root.Hc_sim.Accounting
module Model = Hc_power.Model
module Domain_pool = Hc_core.Domain_pool
module Telemetry = Hc_core.Telemetry
module Artifact_cache = Hc_core.Artifact_cache
module Sink = Hc_obs.Sink
module Sample = Hc_obs.Sample
module Chrome_trace = Hc_obs.Chrome_trace
module Obs_setup = Hc_core.Obs_setup

open Cmdliner

let scheme_names = List.map fst Hc_steering.Policy.stack @ [ "ics05" ]

(* per-lane top-down table: slot counts and % shares for every category,
   plus the partition check (sum == width x rounds, exact) *)
let print_topdown (w : Accounting.widths) v =
  Format.printf "@.-- top-down slot attribution --@.";
  Format.printf "%-16s" "category";
  for lane = 0 to Accounting.nlanes - 1 do
    Format.printf "  %18s" (Accounting.lane_name lane)
  done;
  Format.printf "@.";
  List.iter
    (fun cat ->
      Format.printf "%-16s" (Accounting.cat_name cat);
      for lane = 0 to Accounting.nlanes - 1 do
        Format.printf "  %10d %6.2f%%"
          (Accounting.get v ~lane cat)
          (Accounting.share_pct v ~lane cat)
      done;
      Format.printf "@.")
    Accounting.categories;
  Format.printf "%-16s" "total slots";
  for lane = 0 to Accounting.nlanes - 1 do
    Format.printf "  %10d (%dx%d)" (Accounting.lane_sum v lane)
      (Accounting.lane_width w lane) (Accounting.rounds v ~lane)
  done;
  Format.printf "@.partition invariant: %s@."
    (if Accounting.consistent w v then "exact" else "VIOLATED")

let default_benchmark = "gcc"

let default_length = 30_000

let run obs_t () cache benchmark trace_file length scheme power
    compare_baseline trace_out metrics_interval interval_out trace_buffer
    metrics_out obs topdown stall_out =
  let source =
    match trace_file, benchmark, length with
    | Some file, None, None -> `File file
    | Some _, _, _ ->
      Cli.die "hc_sim: --trace gives the workload; drop --benchmark/--length"
    | None, benchmark, length ->
      `Generate
        ( Cli.profile (Option.value benchmark ~default:default_benchmark),
          Option.value length ~default:default_length )
  in
  let cfg =
    if scheme = "ics05" then Config.ics05
    else
      match Config.find_scheme scheme with
      | scheme_cfg -> Config.with_scheme Config.default scheme_cfg
      | exception Not_found ->
        Printf.eprintf "unknown scheme %S; known: %s\n" scheme
          (String.concat ", " scheme_names);
        exit 1
  in
  let trace =
    match source with
    | `File file -> Cli.load_trace ~tool:"hc_sim" file
    | `Generate (profile, length) ->
      Artifact_cache.trace_or_generate cache ~profile ~length
  in
  let sink =
    if trace_out <> None || metrics_interval > 0 then
      Some
        (Sink.create ~ring_capacity:trace_buffer ~interval:metrics_interval
           ~tracing:(trace_out <> None) ())
    else None
  in
  let accounting = topdown || stall_out <> None in
  let with_base = compare_baseline && scheme <> "baseline" in
  (* the scheme run and its baseline comparator are independent pipeline
     states over the same read-only trace: run them on the pool. Only the
     scheme run is observed — the baseline exists for the speedup line. *)
  let runs =
    let cfgs =
      (cfg, scheme, sink, accounting)
      ::
      (if with_base then
         [ (Config.with_scheme cfg Config.monolithic, "baseline", None, false) ]
       else [])
    in
    Domain_pool.map_list (Domain_pool.get ())
      (fun (cfg, scheme_name, sink, accounting) ->
        Pipeline.run ?sink ~accounting ~cfg ~decide:Hc_steering.Policy.decide
          ~scheme_name trace)
      cfgs
  in
  let m = List.hd runs in
  Format.printf "%a@." Metrics.pp m;
  assert (Metrics.attrib_consistent m);
  assert (Metrics.stall_consistent m);
  ( match metrics_out with
  | Some path ->
    Format.printf "metrics: wrote %s@."
      (Telemetry.write_metrics_json ~path m)
  | None -> () );
  ( match runs with
  | [ _; base ] ->
    Format.printf "speedup over baseline: %.2f%%@."
      (Metrics.speedup_pct ~baseline:base m);
    Format.printf "energy-delay^2 improvement: %.2f%%@."
      (Model.ed2_improvement_pct ~narrow_bits:cfg.Config.narrow_bits
         ~baseline:base m)
  | _ -> () );
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
      let written = Telemetry.write_intervals_csv ~path samples in
      Format.printf
        "intervals: wrote %s (%d samples of %d ticks; aggregate %s final \
         metrics)@."
        written (List.length samples) (Sink.interval sink)
        (if Sample.aggregate samples = m.Metrics.counts then "==" else "<> (BUG)")
    end );
  ( match m.Metrics.stall with
  | None -> ()
  | Some w ->
    (* stall rows: one per sampled interval, else one whole-run row
       (none for a run of zero ticks) *)
    let rows =
      match sink with
      | Some sink when Sink.interval sink > 0 ->
        List.map
          (fun (s : Sample.t) -> (s.Sample.t_start, s.Sample.t_end, s.Sample.d))
          (Sink.samples sink)
      | _ ->
        if m.Metrics.ticks > 0 then [ (0, m.Metrics.ticks, m.Metrics.counts) ]
        else []
    in
    (* every interval delta must itself satisfy the partition, not just
       the run total — a compensating error would hide in the sum *)
    List.iter (fun (_, _, v) -> assert (Accounting.consistent w v)) rows;
    if topdown then print_topdown w m.Metrics.counts;
    ( match stall_out with
    | Some path ->
      let written =
        Telemetry.write_file path
          (Accounting.csv_header
          :: List.map
               (fun (t_start, t_end, v) -> Accounting.csv_row ~t_start ~t_end v)
               rows)
      in
      Format.printf "stall intervals: wrote %s (%d intervals)@." written
        (List.length rows)
    | None -> () ) );
  if power then begin
    let report = Model.estimate ~narrow_bits:cfg.Config.narrow_bits m in
    Format.printf "@.energy: %.0f units@." report.Model.total;
    List.iter
      (fun (name, e) -> Format.printf "  %-20s %12.0f@." name e)
      report.Model.breakdown
  end;
  if obs then begin
    Printf.eprintf "-- stage spans --\n";
    List.iter (fun l -> Printf.eprintf "%s\n" l) (Obs_setup.stage_lines ());
    Printf.eprintf "%!"
  end;
  Obs_setup.finish obs_t

let cmd =
  let benchmark =
    Arg.(
      value
      & opt (some ~none:default_benchmark string) None
      & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"SPEC Int 2000 benchmark name.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Simulate the saved text or binary trace in $(docv) (as written \
             by $(b,hc_trace generate)) instead of generating \
             $(b,--benchmark) at $(b,--length); giving either of those too \
             is a usage error (exit 3), as is an unreadable or corrupt \
             file.")
  in
  let scheme =
    Arg.(
      value & opt string "+IR"
      & info [ "s"; "scheme" ] ~docv:"SCHEME"
          ~doc:
            "Steering scheme (baseline, 8_8_8, +BR, +LR, +CR, +CP, +IR, \
             +IR(nodest), or ics05 for the section-4 comparator).")
  in
  let power =
    Arg.(value & flag & info [ "power" ] ~doc:"Print the energy breakdown.")
  in
  let compare_baseline =
    Arg.(
      value & opt bool true
      & info [ "compare" ] ~docv:"BOOL" ~doc:"Also run the monolithic baseline.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record per-uop pipeline events and write a Chrome trace-event \
             JSON (load in Perfetto or chrome://tracing) to $(docv).")
  in
  let metrics_interval =
    Arg.(
      value & opt int 0
      & info [ "metrics-interval" ] ~docv:"TICKS"
          ~doc:
            "Sample the interval metrics time series every $(docv) fast \
             ticks (0 disables). Column sums equal the final metrics.")
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
            (Printf.sprintf
               "Write the scheme run's full metrics as JSON (schema %d, \
                the format $(b,hc_report) reads and diffs) to $(docv)."
               Artifact_cache.metrics_schema))
  in
  let topdown =
    Arg.(
      value & flag
      & info [ "topdown" ]
          ~doc:
            "Enable the cycle-accounting engine and print the top-down slot \
             attribution table (every issue and commit slot of every tick \
             classified into a disjoint stall taxonomy; per-lane sums are \
             exactly width x rounds). Adds a $(b,stall) object to \
             $(b,--metrics-out) JSON.")
  in
  let stall_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "stall-out" ] ~docv:"FILE"
          ~doc:
            "Write the per-interval stall-attribution time series as CSV to \
             $(docv) (implies $(b,--topdown) accounting; intervals follow \
             $(b,--metrics-interval), else one whole-run interval).")
  in
  let doc = "cycle-level helper-cluster simulator" in
  Cmd.v (Cmd.info "hc_sim" ~doc)
    Term.(
      const run $ Cli.obs $ Cli.jobs $ Cli.cache_dir $ benchmark $ trace_file
      $ Cli.length_opt ~default:default_length $ scheme $ power
      $ compare_baseline $ trace_out $ metrics_interval $ interval_out
      $ trace_buffer $ metrics_out $ Cli.obs_flag $ topdown $ stall_out)

let () = exit (Cmd.eval cmd)
