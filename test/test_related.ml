(* Tests for the §4 comparator machinery: register replication and
   replay-based recovery (the ICS'05 asymmetric cluster). *)

module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Counts = Hc_obs.Counts

let trace =
  lazy
    (Hc_trace.Generator.generate_sliced ~length:6_000
       (Hc_trace.Profile.find_spec_int "gcc"))

let run cfg name =
  Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:name
    (Lazy.force trace)

let test_ics05_config () =
  ( match Config.validate Config.ics05 with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg );
  Alcotest.(check int) "20-bit narrow cluster" 20 Config.ics05.Config.narrow_bits;
  Alcotest.(check bool) "same clock" false Config.ics05.Config.helper_fast_clock;
  Alcotest.(check bool) "replicated" true Config.ics05.Config.replicated_regfile;
  Alcotest.(check bool) "replay" true Config.ics05.Config.replay_recovery;
  Alcotest.(check bool) "ungated prediction" false
    Config.ics05.Config.confidence_gate

let test_replication_kills_copies () =
  let m = run Config.ics05 "ics05" in
  Alcotest.(check int) "commits all" 6_000 m.Metrics.committed;
  Alcotest.(check int) "no copy uops ever" 0 m.Metrics.copies;
  Alcotest.(check bool) "still steers" true (m.Metrics.steered_narrow > 0)

let test_replay_instead_of_flush () =
  let m = run Config.ics05 "ics05" in
  Alcotest.(check int) "no flushes" 0
    (m.Metrics.counts.(Counts.width_flush));
  (* ungated 20-bit prediction mispredicts sometimes: replays must occur *)
  Alcotest.(check bool) "some replays" true
    (m.Metrics.counts.(Counts.replay) > 0);
  Alcotest.(check bool) "replays match fatal classifications" true
    (m.Metrics.counts.(Counts.replay) = m.Metrics.wpred_fatal)

let test_replay_cheaper_than_flush () =
  (* same machine and steering, only the recovery scheme differs *)
  let with_flush = { Config.ics05 with Config.replay_recovery = false } in
  let a = run Config.ics05 "replay" in
  let b = run with_flush "flush" in
  Alcotest.(check bool)
    (Printf.sprintf "replay not slower (%d vs %d ticks)" a.Metrics.ticks
       b.Metrics.ticks)
    true
    (a.Metrics.ticks <= b.Metrics.ticks)

let test_replication_on_this_papers_machine () =
  (* replication also composes with the helper-cluster scheme stack *)
  let cfg =
    { (Config.with_scheme Config.default (Config.find_scheme "+CR")) with
      Config.replicated_regfile = true }
  in
  let m = run cfg "+CR/replicated" in
  Alcotest.(check int) "commits all" 6_000 m.Metrics.committed;
  Alcotest.(check int) "no copies" 0 m.Metrics.copies

let suite =
  ( "related",
    [
      Alcotest.test_case "ics05 config" `Quick test_ics05_config;
      Alcotest.test_case "replication kills copies" `Quick
        test_replication_kills_copies;
      Alcotest.test_case "replay instead of flush" `Quick
        test_replay_instead_of_flush;
      Alcotest.test_case "replay cheaper than flush" `Quick
        test_replay_cheaper_than_flush;
      Alcotest.test_case "replication composes" `Quick
        test_replication_on_this_papers_machine;
    ] )
