(* Tests for histograms, summaries and table rendering. *)

module Histogram = Hc_stats.Histogram
module Summary = Hc_stats.Summary
module Table = Hc_stats.Table

let test_histogram () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty" 0 (Histogram.total h);
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Histogram.mean h);
  Histogram.observe h 1;
  Histogram.observe h 1;
  Histogram.observe_n h 4 2;
  Alcotest.(check int) "total" 4 (Histogram.total h);
  Alcotest.(check int) "count at 1" 2 (Histogram.count h 1);
  Alcotest.(check int) "count missing" 0 (Histogram.count h 3);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Histogram.mean h);
  Alcotest.(check (list int)) "keys" [ 1; 4 ] (Histogram.keys h);
  Alcotest.(check int) "median" 1 (Histogram.percentile h 0.5);
  Alcotest.(check int) "p100" 4 (Histogram.percentile h 1.0);
  Alcotest.(check (float 1e-9)) "fraction <= 1" 0.5 (Histogram.fraction_le h 1);
  Alcotest.(check (float 1e-9)) "fraction <= 4" 1.0 (Histogram.fraction_le h 4)

let test_histogram_errors () =
  let h = Histogram.create () in
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Histogram.percentile h 0.5));
  Histogram.observe h 1;
  Alcotest.check_raises "bad p" (Invalid_argument "Histogram.percentile: p out of [0,1]")
    (fun () -> ignore (Histogram.percentile h 1.5))

let test_summary_means () =
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Summary.arithmetic_mean []);
  Alcotest.(check (float 1e-9)) "mean" 2. (Summary.arithmetic_mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "geometric" 4. (Summary.geometric_mean [ 2.; 8. ]);
  Alcotest.check_raises "geometric empty"
    (Invalid_argument "Summary.geometric_mean: empty") (fun () ->
      ignore (Summary.geometric_mean []));
  Alcotest.check_raises "geometric non-positive"
    (Invalid_argument "Summary.geometric_mean: non-positive element") (fun () ->
      ignore (Summary.geometric_mean [ 1.; 0. ]))

let test_summary_speedup () =
  Alcotest.(check (float 1e-9)) "same" 0. (Summary.speedup ~baseline:2. 2.);
  Alcotest.(check (float 1e-9)) "faster" 0.5 (Summary.speedup ~baseline:2. 3.);
  Alcotest.check_raises "bad baseline"
    (Invalid_argument "Summary.speedup: non-positive baseline") (fun () ->
      ignore (Summary.speedup ~baseline:0. 1.));
  Alcotest.(check (float 1e-9)) "pct" 50. (Summary.pct 0.5)

let prop_welford =
  QCheck.Test.make ~name:"Welford matches direct mean/variance"
    QCheck.(list_of_size (Gen.int_range 2 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Summary.create () in
      List.iter (Summary.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0. xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. n
      in
      Float.abs (Summary.mean s -. mean) < 1e-6 *. (1. +. Float.abs mean)
      && Float.abs (Summary.variance s -. var) < 1e-4 *. (1. +. var)
      && Summary.min_value s = List.fold_left Float.min infinity xs
      && Summary.max_value s = List.fold_left Float.max neg_infinity xs)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_separator t;
  Table.add_row t [ "bbbb"; "22" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "header + rule + rows" 5 (List.length lines);
  (* all lines align to the same width *)
  let widths = List.map String.length lines in
  Alcotest.(check bool) "uniform width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_errors () =
  Alcotest.check_raises "aligns mismatch"
    (Invalid_argument "Table.create: aligns length mismatch") (fun () ->
      ignore (Table.create ~aligns:[ Table.Left ] [ "a"; "b" ]));
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: width mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let test_table_float_row () =
  let t = Table.create [ "name"; "x"; "y" ] in
  Table.add_float_row t "r" [ 1.234; 5.678 ];
  let rendered = Table.render t in
  Alcotest.(check bool) "two decimals" true
    (contains rendered "1.23" && contains rendered "5.68")

let suite =
  ( "stats",
    [
      Alcotest.test_case "histogram" `Quick test_histogram;
      Alcotest.test_case "histogram errors" `Quick test_histogram_errors;
      Alcotest.test_case "summary means" `Quick test_summary_means;
      Alcotest.test_case "summary speedup" `Quick test_summary_speedup;
      QCheck_alcotest.to_alcotest prop_welford;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table errors" `Quick test_table_errors;
      Alcotest.test_case "table float rows" `Quick test_table_float_row;
    ] )
