(* Tests for the activity-based power model. *)

module Model = Hc_power.Model
module Metrics = Hc_sim.Metrics
module Counts = Hc_obs.Counts
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline

let run scheme trace =
  let cfg = Config.with_scheme Config.default (Config.find_scheme scheme) in
  Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:scheme trace

let trace =
  lazy
    (Hc_trace.Generator.generate_sliced ~length:5_000
       (Hc_trace.Profile.find_spec_int "gcc"))

let test_event_energies () =
  Alcotest.(check bool) "known counter priced" true
    (Model.event_energy Counts.alu_wide > 0.);
  Alcotest.(check (float 1e-9)) "unpriced counter free" 0.
    (Model.event_energy Counts.tc_miss);
  Alcotest.(check bool) "narrow regfile cheaper than wide" true
    (Model.event_energy Counts.regread_narrow < Model.event_energy Counts.regread_wide);
  Alcotest.(check bool) "narrow ALU cheaper than wide" true
    (Model.event_energy Counts.alu_narrow < Model.event_energy Counts.alu_wide);
  Alcotest.(check bool) "main memory most expensive access" true
    (Model.event_energy Counts.mem_main > Model.event_energy Counts.mem_ul1)

let test_breakdown_sums () =
  let m = run "+CR" (Lazy.force trace) in
  let report = Model.estimate m in
  let sum = List.fold_left (fun acc (_, e) -> acc +. e) 0. report.Model.breakdown in
  Alcotest.(check bool) "positive energy" true (report.Model.total > 0.);
  Alcotest.(check (float 1e-6)) "breakdown sums to total" report.Model.total sum;
  (* descending order *)
  let rec desc = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      Alcotest.(check bool) "sorted descending" true (a >= b);
      desc rest
    | [ _ ] | [] -> ()
  in
  desc report.Model.breakdown

let test_helper_costs_energy_saves_time () =
  let t = Lazy.force trace in
  let base = run "baseline" t in
  let helper = run "+CR" t in
  Alcotest.(check bool) "helper consumes more energy" true
    ((Model.estimate helper).Model.total > (Model.estimate base).Model.total *. 0.9);
  (* the ED2 verdict can still favour the helper because delay is squared *)
  let ed2 = Model.ed2_improvement_pct ~baseline:base helper in
  Alcotest.(check bool)
    (Printf.sprintf "ed2 improvement defined (%.1f%%)" ed2)
    true (Float.is_finite ed2)

let test_ed2_definition () =
  let t = Lazy.force trace in
  let m = run "baseline" t in
  let expected =
    (Model.estimate m).Model.total *. Metrics.cycles m *. Metrics.cycles m
  in
  Alcotest.(check (float 1e-3)) "E*D^2" expected (Model.energy_delay2 m);
  Alcotest.(check (float 1e-9)) "self comparison" 0.
    (Model.ed2_improvement_pct ~baseline:m m)

let test_estimate_ignores_zero_counters () =
  let m =
    Metrics.of_counts ~name:"empty" ~scheme_name:"none" (Counts.make ())
  in
  let report = Model.estimate m in
  Alcotest.(check (float 1e-9)) "empty run has zero energy" 0. report.Model.total;
  Alcotest.(check int) "no breakdown lines" 0 (List.length report.Model.breakdown)

let suite =
  ( "power",
    [
      Alcotest.test_case "event energies" `Quick test_event_energies;
      Alcotest.test_case "breakdown sums" `Quick test_breakdown_sums;
      Alcotest.test_case "helper energy vs time" `Quick
        test_helper_costs_energy_saves_time;
      Alcotest.test_case "ED2 definition" `Quick test_ed2_definition;
      Alcotest.test_case "zero counters" `Quick test_estimate_ignores_zero_counters;
    ] )
