(* Tests for the cycle-accounting engine: the slot-partition invariant
   (exact — per run, per interval, per lane) across every scheme, and
   accounting's zero observable effect on the metrics it rides with. *)

module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Accounting = Hc_sim.Accounting
module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
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

let run_acct ?sink scheme tr =
  let cfg, decide = resolve scheme tr in
  let a =
    Accounting.create ~issue_width:cfg.Config.issue_width
      ~commit_width:cfg.Config.commit_width ()
  in
  let m = Pipeline.run ?sink ~accounting:a ~cfg ~decide ~scheme_name:scheme tr in
  (m, a)

(* every SPEC profile x every scheme in the stack (plus the static
   oracle): sum(categories) = width x rounds, exactly, on all three lanes *)
let test_partition_all_profiles () =
  List.iter
    (fun p ->
      let tr = Generator.generate_sliced ~length:2_000 p in
      List.iter
        (fun scheme ->
          let m, a = run_acct scheme tr in
          let s = Accounting.totals a in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s partition exact" p.Profile.name scheme)
            true
            (Accounting.consistent s);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s stall_consistent" p.Profile.name scheme)
            true (Metrics.stall_consistent m))
        ("static_888" :: all_schemes))
    spec_profiles

(* interval snapshots: every delta satisfies the partition on its own,
   and the deltas re-add to exactly the end-of-run totals *)
let test_intervals_partition_and_sum () =
  let tr = Generator.generate_sliced ~length:6_000 (Profile.find_spec_int "gcc") in
  let sink = Sink.create ~interval:500 ~tracing:false () in
  let _, a = run_acct ~sink "+IR" tr in
  let ivals = Accounting.intervals a in
  Alcotest.(check bool) "several intervals" true (List.length ivals > 3);
  List.iter
    (fun (iv : Accounting.interval) ->
      Alcotest.(check bool)
        (Printf.sprintf "interval %d-%d consistent" iv.Accounting.iv_start
           iv.Accounting.iv_end)
        true
        (Accounting.consistent iv.Accounting.iv_d))
    ivals;
  let cfg = Config.with_scheme Config.default (Config.find_scheme "+IR") in
  let sum =
    List.fold_left
      (fun acc iv -> Accounting.add_totals acc iv.Accounting.iv_d)
      (Accounting.zero_totals ~issue_width:cfg.Config.issue_width
         ~commit_width:cfg.Config.commit_width)
      ivals
  in
  Alcotest.(check bool) "interval deltas sum to run totals" true
    (sum = Accounting.totals a);
  (* intervals tile the run: contiguous, strictly increasing *)
  ignore
    (List.fold_left
       (fun prev_end (iv : Accounting.interval) ->
         Alcotest.(check int) "contiguous" prev_end iv.Accounting.iv_start;
         Alcotest.(check bool) "non-empty" true
           (iv.Accounting.iv_end > iv.Accounting.iv_start);
         iv.Accounting.iv_end)
       0 ivals)

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
  let _, a = run_acct "8_8_8" tr in
  let s = Accounting.totals a in
  Alcotest.(check int) "wide rounds = cycles"
    s.Accounting.rounds.(Accounting.lane_wide)
    s.Accounting.rounds.(Accounting.lane_commit);
  Alcotest.(check bool) "narrow rounds ~ 2x wide (fast clock)" true
    (s.Accounting.rounds.(Accounting.lane_narrow)
     >= 2 * s.Accounting.rounds.(Accounting.lane_wide) - 1);
  (* committed uops all pass through the commit lane's issued slots *)
  let m, a2 = run_acct "8_8_8" tr in
  Alcotest.(check int) "commit issued slots = committed uops"
    m.Metrics.committed
    (Accounting.get (Accounting.totals a2) ~lane:Accounting.lane_commit
       Accounting.Issued)

let test_csv_shape () =
  let tr = Generator.generate_sliced ~length:3_000 (Profile.find_spec_int "eon") in
  let sink = Sink.create ~interval:400 ~tracing:false () in
  let _, a = run_acct ~sink "+CR" tr in
  let header_cols = String.split_on_char ',' Accounting.csv_header in
  Alcotest.(check int) "header: 2 + 3 lanes x (9 cats + rounds)"
    (2 + (Accounting.nlanes * (Accounting.ncat + 1)))
    (List.length header_cols);
  List.iter
    (fun iv ->
      Alcotest.(check int) "row width matches header"
        (List.length header_cols)
        (List.length
           (String.split_on_char ',' (Accounting.interval_csv_row iv))))
    (Accounting.intervals a)

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
              let accounting =
                Accounting.create ~issue_width
                  ~commit_width:cfg.Config.commit_width ()
              in
              match
                Pipeline.For_testing.run_census_checked ~accounting ~cfg
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
      let m, a = run_acct ~sink scheme tr in
      Accounting.consistent (Accounting.totals a)
      && Metrics.stall_consistent m
      && List.for_all
           (fun (iv : Accounting.interval) ->
             Accounting.consistent iv.Accounting.iv_d)
           (Accounting.intervals a))

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
    ] )
