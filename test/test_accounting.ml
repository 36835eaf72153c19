(* Tests for the cycle-accounting engine: the slot-partition invariant
   (exact — per run, per interval, per lane) across every scheme, and
   accounting's zero observable effect on the metrics it rides with. *)

module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Accounting = Hc_sim.Accounting
module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Counts = Hc_obs.Counts
module Sample = Hc_obs.Sample
module Sink = Hc_obs.Sink

let all_schemes = List.map fst Hc_steering.Policy.stack

let spec_profiles = List.map Profile.find_spec_int Profile.spec_int_names

let resolve scheme tr =
  if scheme = "static_888" then
    ( Config.with_scheme Config.default (Config.find_scheme "8_8_8"),
      Hc_steering.Policy.static_oracle ~reason:Hc_sim.Steer.R888
        ~provably_narrow:
          (Hc_analysis.Static.provably_narrow (Hc_analysis.Static.analyze tr))
    )
  else
    ( Config.with_scheme Config.default (Config.find_scheme scheme),
      Hc_steering.Policy.decide )

let widths cfg =
  { Accounting.issue_width = cfg.Config.issue_width;
    commit_width = cfg.Config.commit_width }

(* an accounted run and the widths its stall rows partition *)
let run_acct ?sink scheme tr =
  let cfg, decide = resolve scheme tr in
  let m = Pipeline.run ?sink ~accounting:true ~cfg ~decide ~scheme_name:scheme tr in
  (m, widths cfg)

(* every SPEC profile x every scheme in the stack (plus the static
   oracle): sum(categories) = width x rounds, exactly, on all three lanes *)
let test_partition_all_profiles () =
  List.iter
    (fun p ->
      let tr = Generator.generate_sliced ~length:2_000 p in
      List.iter
        (fun scheme ->
          let m, w = run_acct scheme tr in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s partition exact" p.Profile.name scheme)
            true
            (Accounting.consistent w m.Metrics.counts);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s stall_consistent" p.Profile.name scheme)
            true (Metrics.stall_consistent m))
        ("static_888" :: all_schemes))
    spec_profiles

(* interval samples: every delta satisfies the partition on its own,
   and the deltas re-add to exactly the end-of-run stall rows *)
let test_intervals_partition_and_sum () =
  let tr = Generator.generate_sliced ~length:6_000 (Profile.find_spec_int "gcc") in
  let sink = Sink.create ~interval:500 ~tracing:false () in
  let m, w = run_acct ~sink "+IR" tr in
  let samples = Sink.samples sink in
  Alcotest.(check bool) "several intervals" true (List.length samples > 3);
  List.iter
    (fun (s : Sample.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "interval %d-%d consistent" s.Sample.t_start
           s.Sample.t_end)
        true
        (Accounting.consistent w s.Sample.d))
    samples;
  let sum = Sample.aggregate samples in
  Alcotest.(check (list int)) "interval deltas sum to run totals"
    (List.map (fun id -> m.Metrics.counts.(id)) Counts.stall_ids)
    (List.map (fun id -> sum.(id)) Counts.stall_ids);
  Alcotest.(check bool) "run accounted some rounds" true
    (Accounting.rounds m.Metrics.counts ~lane:Accounting.lane_commit > 0);
  (* intervals tile the run: contiguous, strictly increasing *)
  ignore
    (List.fold_left
       (fun prev_end (s : Sample.t) ->
         Alcotest.(check int) "contiguous" prev_end s.Sample.t_start;
         Alcotest.(check bool) "non-empty" true (s.Sample.t_end > s.Sample.t_start);
         s.Sample.t_end)
       0 samples)

(* accounting must not perturb the simulation: same trace, same scheme,
   with and without the accumulator, all metrics identical (the stall
   object is the only JSON difference, by construction) *)
let test_accounting_bit_identity () =
  let tr = Generator.generate_sliced ~length:4_000 (Profile.find_spec_int "mcf") in
  List.iter
    (fun scheme ->
      let cfg, decide = resolve scheme tr in
      let plain = Pipeline.run ~cfg ~decide ~scheme_name:scheme tr in
      let with_acct, _ = run_acct scheme tr in
      Alcotest.(check string)
        (scheme ^ " metrics JSON identical with stall stripped")
        (Metrics.to_json plain)
        (Metrics.to_json { with_acct with Metrics.stall = None }))
    [ "baseline"; "8_8_8"; "+IR" ]

(* the commit lane accounts every even tick; the wide lane every even
   tick; the narrow lane twice per cycle under the fast helper clock *)
let test_round_counts () =
  let tr = Generator.generate_sliced ~length:2_000 (Profile.find_spec_int "gzip") in
  let m, _ = run_acct "8_8_8" tr in
  let rounds lane = Accounting.rounds m.Metrics.counts ~lane in
  Alcotest.(check int) "wide rounds = cycles"
    (rounds Accounting.lane_wide)
    (rounds Accounting.lane_commit);
  Alcotest.(check bool) "narrow rounds ~ 2x wide (fast clock)" true
    (rounds Accounting.lane_narrow >= 2 * rounds Accounting.lane_wide - 1);
  (* committed uops all pass through the commit lane's issued slots *)
  Alcotest.(check int) "commit issued slots = committed uops"
    m.Metrics.committed
    (Accounting.get m.Metrics.counts ~lane:Accounting.lane_commit
       Accounting.Issued)

let test_csv_shape () =
  let tr = Generator.generate_sliced ~length:3_000 (Profile.find_spec_int "eon") in
  let sink = Sink.create ~interval:400 ~tracing:false () in
  ignore (run_acct ~sink "+CR" tr);
  let header_cols = String.split_on_char ',' Accounting.csv_header in
  Alcotest.(check int) "header: 2 + 3 lanes x (9 cats + rounds)"
    (2 + (Accounting.nlanes * (Accounting.ncat + 1)))
    (List.length header_cols);
  (* lane-major, each lane's categories in taxonomy order, rounds last *)
  Alcotest.(check (list string)) "header columns"
    ("t_start" :: "t_end"
    :: List.concat_map
         (fun lane ->
           List.map
             (fun col -> Accounting.lane_name lane ^ "_" ^ col)
             (List.map Accounting.cat_name Accounting.categories @ [ "rounds" ]))
         [ Accounting.lane_wide; Accounting.lane_narrow; Accounting.lane_commit ])
    header_cols;
  List.iter
    (fun (s : Sample.t) ->
      Alcotest.(check int) "row width matches header"
        (List.length header_cols)
        (List.length
           (String.split_on_char ','
              (Accounting.csv_row ~t_start:s.Sample.t_start ~t_end:s.Sample.t_end
                 s.Sample.d))))
    (Sink.samples sink)

(* the blocked-occupant census against its reference walk, in every idle
   issue round: every scheme, with and without the replicated register
   file and the fast helper clock, at issue widths 1 and 4. The
   replicated file and LR make values usable in the other cluster two
   ticks after writeback, which only a timed re-check sees. *)
let test_census_matches_walk () =
  List.iter
    (fun name ->
      let tr = Generator.generate_sliced ~length:3_000 (Profile.find_spec_int name) in
      List.iter
        (fun (scheme, s) ->
          List.iter
            (fun (replicated_regfile, helper_fast_clock, issue_width) ->
              let cfg =
                { (Config.with_scheme Config.default s) with
                  Config.replicated_regfile; helper_fast_clock; issue_width }
              in
              match
                Pipeline.For_testing.run_ready_checked ~accounting:true ~cfg
                  ~decide:Hc_steering.Policy.decide ~scheme_name:scheme tr
              with
              | _ -> ()
              | exception Failure msg ->
                Alcotest.failf "%s/%s repl=%b fast=%b width=%d: %s" name scheme
                  replicated_regfile helper_fast_clock issue_width msg)
            [ (true, true, 1); (true, false, 4); (false, true, 4);
              (false, false, 1) ])
        Config.scheme_stack)
    [ "gcc"; "mcf"; "vpr"; "vortex" ]

(* the issue queues' ready lists against their reference walk, before
   every issue round, without accounting (the census check above runs
   the same comparison with it): the same grid, with flush and with
   replay recovery. Replay leaves dead copies for the next round to take
   out, and the replicated file and LR wake consumers two ticks after
   writeback. *)
let test_ready_lists_match_walk () =
  List.iter
    (fun name ->
      let tr = Generator.generate_sliced ~length:3_000 (Profile.find_spec_int name) in
      List.iter
        (fun (scheme, s) ->
          List.iter
            (fun (replicated_regfile, helper_fast_clock, issue_width) ->
              List.iter
                (fun replay_recovery ->
                  let cfg =
                    { (Config.with_scheme Config.default s) with
                      Config.replicated_regfile; helper_fast_clock; issue_width;
                      replay_recovery }
                  in
                  match
                    Pipeline.For_testing.run_ready_checked ~cfg
                      ~decide:Hc_steering.Policy.decide ~scheme_name:scheme tr
                  with
                  | _ -> ()
                  | exception Failure msg ->
                    Alcotest.failf "%s/%s repl=%b fast=%b width=%d replay=%b: %s"
                      name scheme replicated_regfile helper_fast_clock
                      issue_width replay_recovery msg)
                [ false; true ])
            [ (true, true, 1); (true, false, 4); (false, true, 4);
              (false, false, 1) ])
        Config.scheme_stack)
    [ "gcc"; "mcf"; "vpr"; "vortex" ]

(* randomized: any (profile, scheme, length) keeps the partition exact *)
let prop_partition =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ "gcc"; "mcf"; "bzip2"; "gzip"; "vortex"; "twolf" ])
        (oneofl ("static_888" :: all_schemes))
        (int_range 200 3_000))
  in
  let print (bench, scheme, len) =
    Printf.sprintf "%s/%s at %d uops" bench scheme len
  in
  QCheck.Test.make ~name:"slot partition exact for random profile x scheme"
    ~count:40
    (QCheck.make ~print gen)
    (fun (bench, scheme, len) ->
      let tr = Generator.generate_sliced ~length:len (Profile.find_spec_int bench) in
      let sink = Sink.create ~interval:256 ~tracing:false () in
      let m, w = run_acct ~sink scheme tr in
      Accounting.consistent w m.Metrics.counts
      && Metrics.stall_consistent m
      && List.for_all
           (fun (s : Sample.t) -> Accounting.consistent w s.Sample.d)
           (Sink.samples sink))

let suite =
  ( "accounting",
    [
      Alcotest.test_case "partition: all profiles x schemes" `Quick
        test_partition_all_profiles;
      Alcotest.test_case "interval partition and sum" `Quick
        test_intervals_partition_and_sum;
      Alcotest.test_case "accounting-on bit identity" `Quick
        test_accounting_bit_identity;
      Alcotest.test_case "round counts" `Quick test_round_counts;
      Alcotest.test_case "stall CSV shape" `Quick test_csv_shape;
      QCheck_alcotest.to_alcotest prop_partition;
      Alcotest.test_case "census equals the queue walk" `Quick
        test_census_matches_walk;
      Alcotest.test_case "ready lists equal the queue walk" `Quick
        test_ready_lists_match_walk;
    ] )
