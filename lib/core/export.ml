module Metrics = Hc_sim.Metrics
module Summary = Hc_stats.Summary

let csv_line fields =
  let quote f =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') f then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' f) ^ "\""
    else f
  in
  String.concat "," (List.map quote fields)

let write_file = Telemetry.write_file

let f2 = Printf.sprintf "%.2f"

let schemes = [ "8_8_8"; "+BR"; "+LR"; "+CR"; "+CP"; "+IR"; "+IR(nodest)" ]

let write_all runs ~dir =
  Telemetry.mkdir_p dir;
  let path name = Filename.concat dir name in
  let meta =
    let m = Meta.capture () in
    write_file (path "meta.json")
      [ Printf.sprintf "{%s,\"trace_length\":%d}" (Meta.to_json_fields m)
          (Runs.length runs) ]
  in
  let fig1 =
    write_file (path "fig1.csv")
      (csv_line [ "benchmark"; "narrow_dependent_pct" ]
      :: List.map
           (fun (b, v) -> csv_line [ b; f2 v ])
           (Experiments.fig1_rows runs))
  in
  let fig5 =
    write_file (path "fig5.csv")
      (csv_line [ "benchmark"; "correct_pct"; "fatal_pct"; "nonfatal_pct" ]
      :: List.map
           (fun (b, c, f, nf) -> csv_line [ b; f2 c; f2 f; f2 nf ])
           (Experiments.fig5_rows runs))
  in
  let fig6 =
    write_file (path "fig6.csv")
      (csv_line [ "benchmark"; "speedup_pct" ]
      :: List.map
           (fun (b, v) -> csv_line [ b; f2 v ])
           (Experiments.fig6_rows runs))
  in
  let fig7 =
    write_file (path "fig7.csv")
      (csv_line [ "benchmark"; "steered_pct"; "copies_pct" ]
      :: List.map
           (fun (b, s, c) -> csv_line [ b; f2 s; f2 c ])
           (Experiments.fig7_rows runs))
  in
  let fig8_9 =
    let series =
      List.map
        (fun scheme -> (scheme, Experiments.copies_by_scheme runs scheme))
        [ "8_8_8"; "+BR"; "+LR" ]
    in
    let benchmarks = List.map fst (snd (List.hd series)) in
    write_file (path "fig8_9.csv")
      (csv_line ("benchmark" :: List.map fst series)
      :: List.map
           (fun b ->
             csv_line
               (b
               :: List.map
                    (fun (_, rows) -> f2 (List.assoc b rows))
                    series))
           benchmarks)
  in
  let fig11 =
    write_file (path "fig11.csv")
      (csv_line [ "benchmark"; "arith_pct"; "load_pct" ]
      :: List.map
           (fun (b, a, l) -> csv_line [ b; f2 a; f2 l ])
           (Experiments.fig11_rows runs))
  in
  let fig12 =
    write_file (path "fig12.csv")
      (csv_line [ "benchmark"; "s888_speedup_pct"; "cr_speedup_pct" ]
      :: List.map
           (fun (b, a, c) -> csv_line [ b; f2 a; f2 c ])
           (Experiments.fig12_rows runs))
  in
  let fig13 =
    write_file (path "fig13.csv")
      (csv_line [ "benchmark"; "mean_distance_uops" ]
      :: List.map
           (fun (b, v) -> csv_line [ b; f2 v ])
           (Experiments.fig13_rows runs))
  in
  let stack =
    let rows =
      List.map
        (fun scheme ->
          let mean f =
            Summary.arithmetic_mean
              (List.map
                 (fun p -> f (Runs.metrics runs ~scheme p))
                 Runs.spec_profiles)
          in
          let speed =
            Summary.arithmetic_mean
              (List.map
                 (fun p -> Runs.speedup_pct runs ~scheme p)
                 Runs.spec_profiles)
          in
          csv_line
            [ scheme; f2 speed; f2 (mean Metrics.steered_pct);
              f2 (mean Metrics.copy_pct); f2 (mean Metrics.wpred_fatal_pct) ])
        schemes
    in
    write_file (path "stack.csv")
      (csv_line [ "scheme"; "speedup_pct"; "steered_pct"; "copies_pct"; "fatal_pct" ]
      :: rows)
  in
  let fig14 =
    write_file (path "fig14.csv")
      (csv_line [ "category"; "speedup_pct" ]
      :: List.map
           (fun (c, v) -> csv_line [ c; f2 v ])
           (Experiments.fig14_category_rows
              (Experiments.fig14_speedups ~apps_per_category:12 ~length:6_000
                 ())))
  in
  [ meta; fig1; fig5; fig6; fig7; fig8_9; fig11; fig12; fig13; stack; fig14 ]
