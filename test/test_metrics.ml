(* Tests for metrics arithmetic on hand-built records. *)

module Metrics = Hc_sim.Metrics
module Counts = Hc_obs.Counts

let mk ?(committed = 1000) ?(ticks = 2000) ?(copies = 100) ?(steered = 200)
    ?(correct = 900) ?(fatal = 10) ?(nonfatal = 90) ?(pf = 50) ?(useful = 40)
    ?(w2n = 30) ?(n2w = 5) ?(issued = 1500) () =
  let v = Counts.make () in
  List.iter
    (fun (id, n) -> v.(id) <- n)
    [ (Counts.committed, committed); (Counts.tick, ticks);
      (Counts.copies, copies); (Counts.steered_narrow, steered);
      (Counts.steered_888, steered); (Counts.wide_default, committed - steered);
      (Counts.wpred_correct, correct); (Counts.wpred_fatal, fatal);
      (Counts.wpred_nonfatal, nonfatal); (Counts.prefetch_copies, pf);
      (Counts.prefetch_useful, useful); (Counts.nready_w2n, w2n);
      (Counts.nready_n2w, n2w); (Counts.issue_wide, issued) ];
  Metrics.of_counts ~name:"synthetic" ~scheme_name:"test" v

let close = Alcotest.(check (float 1e-9))

let test_ipc () =
  let m = mk () in
  close "cycles" 1000. (Metrics.cycles m);
  close "ipc" 1. (Metrics.ipc m);
  close "zero ticks" 0. (Metrics.ipc (mk ~ticks:0 ()))

let test_percentages () =
  let m = mk () in
  close "copy pct" 10. (Metrics.copy_pct m);
  close "steered pct" 20. (Metrics.steered_pct m);
  close "accuracy" 90. (Metrics.wpred_accuracy_pct m);
  close "fatal" 1. (Metrics.wpred_fatal_pct m);
  close "nonfatal" 9. (Metrics.wpred_nonfatal_pct m);
  close "cp accuracy" 80. (Metrics.cp_accuracy_pct m);
  close "w2n" 2. (Metrics.imbalance_w2n_pct m);
  close "n2w" (1. /. 3.) (Metrics.imbalance_n2w_pct m)

let test_degenerate () =
  let m = mk ~committed:0 ~copies:0 ~steered:0 ~correct:0 ~fatal:0 ~nonfatal:0
      ~pf:0 ~useful:0 ~w2n:0 ~n2w:0 ~issued:0 ()
  in
  close "copy pct empty" 0. (Metrics.copy_pct m);
  close "accuracy empty" 0. (Metrics.wpred_accuracy_pct m);
  close "cp empty" 0. (Metrics.cp_accuracy_pct m);
  close "imbalance empty" 0. (Metrics.imbalance_w2n_pct m)

let test_speedup () =
  let base = mk ~ticks:2000 () in
  let fast = mk ~ticks:1000 () in
  close "halved time doubles ipc" 100. (Metrics.speedup_pct ~baseline:base fast);
  close "self speedup zero" 0. (Metrics.speedup_pct ~baseline:base base)

let test_pp () =
  let rendered = Format.asprintf "%a" Metrics.pp (mk ()) in
  Alcotest.(check bool) "renders" true (String.length rendered > 40)

let suite =
  ( "metrics",
    [
      Alcotest.test_case "ipc" `Quick test_ipc;
      Alcotest.test_case "percentages" `Quick test_percentages;
      Alcotest.test_case "degenerate inputs" `Quick test_degenerate;
      Alcotest.test_case "speedup" `Quick test_speedup;
      Alcotest.test_case "pretty printing" `Quick test_pp;
    ] )
