(* Integration tests over the experiment layer: every figure/table renders,
   headlines are well-formed, and the paper's qualitative claims hold on
   the reproduction. Short traces keep this suite fast; hc_experiments
   runs the full-size versions. *)

module Experiments = Hc_core.Experiments
module Runs = Hc_core.Runs
module Profile = Hc_trace.Profile
module Metrics = Hc_sim.Metrics

let runs = lazy (Runs.create ~length:6_000 ())

let test_runs_cache () =
  let r = Lazy.force runs in
  Alcotest.(check int) "length recorded" 6_000 (Runs.length r);
  let gcc = Profile.find_spec_int "gcc" in
  let a = Runs.metrics r ~scheme:"8_8_8" gcc in
  let b = Runs.metrics r ~scheme:"8_8_8" gcc in
  Alcotest.(check bool) "memoized (same physical result)" true (a == b);
  Alcotest.check_raises "unknown scheme" Not_found (fun () ->
      ignore (Runs.metrics r ~scheme:"nonesuch" gcc))

let test_all_experiments_render () =
  let r = Lazy.force runs in
  List.iter
    (fun (e : Experiments.t) ->
      let text, headlines = e.Experiments.run r in
      Alcotest.(check bool) (e.Experiments.id ^ " renders") true
        (String.length text > 0);
      Alcotest.(check bool) (e.Experiments.id ^ " has headlines") true
        (headlines <> []);
      List.iter
        (fun (h : Experiments.headline) ->
          Alcotest.(check bool)
            (e.Experiments.id ^ ": " ^ h.Experiments.label ^ " finite")
            true
            (Float.is_finite h.Experiments.measured))
        headlines)
    Experiments.all

let test_find () =
  Alcotest.(check string) "find fig6" "fig6" (Experiments.find "fig6").Experiments.id;
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Experiments.find "fig99"))

let test_fig1_rows_in_range () =
  let rows = Experiments.fig1_rows (Lazy.force runs) in
  Alcotest.(check int) "twelve rows" 12 (List.length rows);
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " in range") true (v >= 0. && v <= 100.))
    rows

let test_fig5_accuracy_high () =
  let rows = Experiments.fig5_rows (Lazy.force runs) in
  List.iter
    (fun (name, correct, fatal, nonfatal) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s outcome classes sum to 100 (%.1f)" name
           (correct +. fatal +. nonfatal))
        true
        (Float.abs (correct +. fatal +. nonfatal -. 100.) < 0.5);
      Alcotest.(check bool)
        (Printf.sprintf "%s accuracy dominates (%.1f%%)" name correct)
        true (correct > 75.))
    rows

let test_copy_trajectory () =
  (* the paper's central copy story: BR reduces copies below 8_8_8, LR
     reduces them further (Figs 8 and 9) *)
  let r = Lazy.force runs in
  let avg scheme =
    let rows = Experiments.copies_by_scheme r scheme in
    Hc_stats.Summary.arithmetic_mean (List.map snd rows)
  in
  let s888 = avg "8_8_8" and br = avg "+BR" and lr = avg "+LR" in
  Alcotest.(check bool)
    (Printf.sprintf "BR < 8_8_8 (%.1f < %.1f)" br s888)
    true (br < s888);
  Alcotest.(check bool) (Printf.sprintf "LR < BR (%.1f < %.1f)" lr br) true
    (lr < br)

let test_steering_grows_along_stack () =
  let r = Lazy.force runs in
  let avg scheme =
    Hc_stats.Summary.arithmetic_mean
      (List.map
         (fun p -> Metrics.steered_pct (Runs.metrics r ~scheme p))
         Runs.spec_profiles)
  in
  Alcotest.(check bool) "BR steers more than 8_8_8" true (avg "+BR" > avg "8_8_8");
  Alcotest.(check bool) "CR steers more than BR" true (avg "+CR" > avg "+BR")

let test_helper_beats_baseline_on_average () =
  let r = Lazy.force runs in
  let avg scheme =
    Hc_stats.Summary.arithmetic_mean
      (List.map (fun p -> Runs.speedup_pct r ~scheme p) Runs.spec_profiles)
  in
  Alcotest.(check bool) "8_8_8 positive on average" true (avg "8_8_8" > 0.);
  Alcotest.(check bool) "+CR above 8_8_8" true (avg "+CR" > avg "8_8_8")

let fig14_sample () =
  Experiments.fig14_speedups ~apps_per_category:2 ~length:2_000 ()

(* fig14 simulates its suite once: the category rows, the S-curve and the
   rendered text are pure functions of one speedup list, and they equal
   what two separate simulations of the suite (one for the rows, one for
   the curve) produce *)
let test_fig14_subsample () =
  let speedups = fig14_sample () in
  let rows = Experiments.fig14_category_rows speedups in
  Alcotest.(check int) "seven categories" 7 (List.length rows);
  List.iter
    (fun (cat, v) ->
      Alcotest.(check bool) (cat ^ " finite") true (Float.is_finite v))
    rows;
  let curve = Experiments.fig14_curve speedups in
  Alcotest.(check int) "curve covers apps" 14 (List.length curve);
  let sorted = List.sort Float.compare curve in
  Alcotest.(check bool) "curve ascending" true (curve = sorted);
  Alcotest.(check (list (pair string (float 0.))))
    "rows match a separate suite simulation" rows
    (Experiments.fig14_category_rows (fig14_sample ()));
  Alcotest.(check (list (float 0.)))
    "curve matches a separate suite simulation" curve
    (Experiments.fig14_curve (fig14_sample ()));
  let text, headlines = Experiments.fig14_render speedups in
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun (cat, v) ->
      Alcotest.(check bool)
        (cat ^ " row rendered") true
        (List.exists
           (fun l ->
             let words = String.split_on_char ' ' l in
             List.mem cat words && List.mem (Printf.sprintf "%.1f" v) words)
           lines))
    rows;
  let n = List.length curve in
  Alcotest.(check bool)
    "S-curve line from the same list" true
    (List.exists
       (String.equal
          (Printf.sprintf
             "S-curve (baseline=1.0): p10=%.2f p25=%.2f median=%.2f p75=%.2f \
              p90=%.2f max=%.2f"
             (List.nth curve (n / 10)) (List.nth curve (n / 4))
             (List.nth curve (n / 2)) (List.nth curve (3 * n / 4))
             (List.nth curve (9 * n / 10)) (List.nth curve (n - 1))))
       lines);
  match headlines with
  | [ h ] ->
    Alcotest.(check (float 0.)) "headline is the category average"
      (Hc_stats.Summary.arithmetic_mean (List.map snd rows))
      h.Experiments.measured
  | _ -> Alcotest.fail "fig14 has one headline"

(* ----- bottleneck reads its breakdowns from the campaign cells ----- *)

module Pipeline = Hc_sim.Pipeline
module Artifact_cache = Hc_core.Artifact_cache

let bottleneck_length = 2_000

let bottleneck_text runs = fst ((Experiments.find "bottleneck").Experiments.run runs)

(* every (scheme, profile) cell the bottleneck table reads carries, in its
   Runs metrics, exactly the counts and widths of a fresh accounting run
   of the same cell; with [stall] stripped, the metrics JSON is byte-identical to an
   accounting-off run of that cell *)
let test_bottleneck_stall_from_runs () =
  Test_cache.with_root (fun root ->
      let runs =
        Runs.create ~length:bottleneck_length
          ~cache:(Artifact_cache.create ~root ()) ()
      in
      Runs.ensure_spec runs Experiments.bottleneck_schemes;
      List.iter
        (fun scheme ->
          List.iter
            (fun (p : Profile.t) ->
              let cell = Printf.sprintf "%s/%s" scheme p.Profile.name in
              let m = Runs.metrics runs ~scheme p in
              let tr = Runs.trace runs p in
              let static = Runs.static_info runs tr in
              let cfg, decide = Runs.resolve_policy ~static ~scheme in
              let fresh =
                Pipeline.run ~accounting:true ~cfg ~decide ~scheme_name:scheme tr
              in
              Alcotest.(check bool)
                (cell ^ " stall == fresh accounting totals") true
                (m.Metrics.stall <> None
                && m.Metrics.stall = fresh.Metrics.stall
                && m.Metrics.counts = fresh.Metrics.counts);
              let plain =
                Pipeline.run ~cfg ~decide ~scheme_name:scheme tr
              in
              Alcotest.(check string)
                (cell ^ " stall-stripped JSON == accounting-off JSON")
                (Metrics.to_json
                   {
                     plain with
                     Metrics.static_narrow_bound =
                       Some
                         static.Hc_analysis.Static.base
                           .Hc_analysis.Static.steerable_count;
                     static_bidir_bound =
                       Some static.Hc_analysis.Static.bidir_steerable_count;
                   })
                (Metrics.to_json { m with Metrics.stall = None }))
            Runs.spec_profiles)
        Experiments.bottleneck_schemes)

(* a warm cache serves bottleneck without simulating: a second Runs over
   the same cache directory renders the same text with 0 run misses; a
   stall-less entry (written by a build that did not account cycles)
   fails loudly, naming its cell *)
let test_bottleneck_warm_cache () =
  Test_cache.with_root (fun root ->
      let fresh () =
        let cache = Artifact_cache.create ~root () in
        (cache, Runs.create ~length:bottleneck_length ~cache ())
      in
      let _, cold = fresh () in
      let cold_text = bottleneck_text cold in
      let warm_cache, warm = fresh () in
      Alcotest.(check string) "warm text == cold text" cold_text
        (bottleneck_text warm);
      let c = Artifact_cache.counts warm_cache in
      Alcotest.(check int) "every cell read from the run cache"
        (List.length Experiments.bottleneck_schemes
        * List.length Runs.spec_profiles)
        c.Artifact_cache.run_hits;
      Alcotest.(check int) "warm run misses" 0 c.Artifact_cache.run_misses;
      Alcotest.(check int) "warm trace misses" 0 c.Artifact_cache.trace_misses;
      let gcc = Profile.find_spec_int "gcc" in
      Artifact_cache.store_metrics warm_cache ~scheme:"+BR" ~profile:gcc
        ~length:bottleneck_length
        { (Runs.metrics warm ~scheme:"+BR" gcc) with Metrics.stall = None };
      let _, stale = fresh () in
      match bottleneck_text stale with
      | _ -> Alcotest.fail "a stall-less run entry was accepted"
      | exception Failure msg ->
        Alcotest.(check string) "failure names the cell"
          "bottleneck: the +BR run of gcc carries no stall breakdown" msg)

let suite =
  ( "experiments",
    [
      Alcotest.test_case "runs cache" `Quick test_runs_cache;
      Alcotest.test_case "all experiments render" `Slow test_all_experiments_render;
      Alcotest.test_case "find" `Quick test_find;
      Alcotest.test_case "fig1 ranges" `Quick test_fig1_rows_in_range;
      Alcotest.test_case "fig5 accuracy" `Quick test_fig5_accuracy_high;
      Alcotest.test_case "copy trajectory (Figs 8-9)" `Quick test_copy_trajectory;
      Alcotest.test_case "steering grows along stack" `Quick
        test_steering_grows_along_stack;
      Alcotest.test_case "helper beats baseline" `Quick
        test_helper_beats_baseline_on_average;
      Alcotest.test_case "fig14 subsample" `Slow test_fig14_subsample;
      Alcotest.test_case "bottleneck stall from Runs cells" `Slow
        test_bottleneck_stall_from_runs;
      Alcotest.test_case "bottleneck warm cache" `Slow test_bottleneck_warm_cache;
    ] )
