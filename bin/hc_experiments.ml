(* Reproduce the paper's tables and figures and print paper-vs-measured
   headline comparisons.

     hc_experiments                 run everything
     hc_experiments fig6 fig12      run selected experiments
     hc_experiments --length 50000  longer traces (slower, smoother)
     hc_experiments --jobs 4        size the simulation domain pool
     hc_experiments --list          list experiment ids
     hc_experiments --telemetry-dir DIR   per-run interval series + metrics
     hc_experiments --cache-dir DIR       warm reruns skip generation + sim *)

module Experiments = Hc_core.Experiments
module Ablations = Hc_core.Ablations
module Runs = Hc_core.Runs
module Telemetry = Hc_core.Telemetry
module Obs_setup = Hc_core.Obs_setup

open Cmdliner

let run_ids ids length telemetry cache progress =
  let runs = Runs.create ~length ?telemetry ?cache ?progress () in
  let selected =
    match ids with
    | [] -> Experiments.all
    | ids ->
      List.map
        (fun id ->
          try Experiments.find id
          with Not_found ->
            Printf.eprintf "unknown experiment %S (try --list)\n" id;
            exit 1)
        ids
  in
  List.iter
    (fun (e : Experiments.t) ->
      Printf.printf "=== %s: %s ===\n" e.Experiments.id e.Experiments.title;
      Printf.printf "paper: %s\n\n" e.Experiments.paper_claim;
      let text, headlines = e.Experiments.run runs in
      print_endline text;
      List.iter
        (fun (h : Experiments.headline) ->
          Printf.printf "  %-55s paper %8.2f | measured %8.2f\n"
            h.Experiments.label h.Experiments.paper h.Experiments.measured)
        headlines;
      print_newline ())
    selected

let run_ablations ids length =
  let selected =
    match ids with
    | [] -> Ablations.all
    | ids ->
      List.map
        (fun id ->
          try Ablations.find id
          with Not_found ->
            Printf.eprintf "unknown ablation %S\n" id;
            exit 1)
        ids
  in
  List.iter
    (fun (a : Ablations.t) ->
      Printf.printf "=== ablation %s: %s ===\nisolates: %s\n\n" a.Ablations.id
        a.Ablations.title a.Ablations.what;
      print_endline (Ablations.render (a.Ablations.run ~length));
      print_newline ())
    selected

let list_experiments () =
  List.iter
    (fun (e : Experiments.t) ->
      Printf.printf "%-8s %s\n" e.Experiments.id e.Experiments.title)
    Experiments.all;
  print_endline "ablations (with --ablations):";
  List.iter
    (fun (a : Ablations.t) ->
      Printf.printf "%-12s %s\n" a.Ablations.id a.Ablations.title)
    Ablations.all

let export dir length telemetry cache progress =
  let runs = Runs.create ~length ?telemetry ?cache ?progress () in
  let written = Hc_core.Export.write_all runs ~dir in
  List.iter print_endline written

let main obs_t () list_flag ablations csv_dir length telemetry_dir
    metrics_interval cache progress_flag ids =
  let telemetry =
    Option.map
      (fun dir -> { Hc_core.Telemetry.dir; interval = metrics_interval })
      telemetry_dir
  in
  let progress =
    if progress_flag then
      Some (Telemetry.progress_create ~label:"campaign" ~enabled:true ())
    else None
  in
  ( if list_flag then list_experiments ()
    else if ablations then run_ablations ids length
    else
      match csv_dir with
      | Some dir -> export dir length telemetry cache progress
      | None -> run_ids ids length telemetry cache progress );
  ( match progress with
  | Some p -> Telemetry.progress_finish p
  | None -> () );
  Obs_setup.finish obs_t

let cmd =
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")
  in
  let ablations =
    Arg.(value & flag & info [ "ablations" ] ~doc:"Run design ablations instead.")
  in
  let csv_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Write plot-ready CSVs into $(docv).")
  in
  let telemetry_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-dir" ] ~docv:"DIR"
          ~doc:
            "Write per-run telemetry ($(b,<scheme>__<benchmark>)\
             $(b,.intervals.csv) and $(b,.metrics.json)) for every \
             simulation into $(docv) (created with parents).")
  in
  let metrics_interval =
    Arg.(
      value & opt int 1_000
      & info [ "metrics-interval" ] ~docv:"TICKS"
          ~doc:
            "Interval sampler period, in fast ticks, for \
             $(b,--telemetry-dir) runs.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress" ]
          ~doc:
            "Live campaign reporter on stderr: cells done/total, warm-hit \
             rate and ETA, updated as the sweep resolves.")
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT")
  in
  let doc = "reproduce the helper-cluster paper's tables and figures" in
  Cmd.v (Cmd.info "hc_experiments" ~doc)
    Term.(
      const main $ Cli.obs $ Cli.jobs $ list_flag $ ablations $ csv_dir
      $ Cli.length ~default:30_000 $ telemetry_dir $ metrics_interval
      $ Cli.cache_dir $ progress $ ids)

let () = exit (Cmd.eval cmd)
