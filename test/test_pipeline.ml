(* Integration tests: whole-trace simulations under every scheme, checking
   the structural invariants a correct pipeline must keep. *)

module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Counts = Hc_obs.Counts
module Generator = Hc_trace.Generator
module Profile = Hc_trace.Profile
module Trace = Hc_trace.Trace

let trace_of ?(length = 4_000) name =
  Generator.generate_sliced ~length (Profile.find_spec_int name)

let run ?cfg scheme trace =
  let cfg =
    match cfg with
    | Some c -> c
    | None -> Config.with_scheme Config.default (Config.find_scheme scheme)
  in
  Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:scheme trace

let all_schemes = List.map fst Hc_steering.Policy.stack

let test_commits_whole_trace () =
  let t = trace_of "gcc" in
  List.iter
    (fun scheme ->
      let m = run scheme t in
      Alcotest.(check int)
        (scheme ^ " commits every trace uop")
        (Trace.length t) m.Metrics.committed)
    all_schemes

let test_baseline_is_monolithic () =
  let t = trace_of "gzip" in
  let m = run "baseline" t in
  Alcotest.(check int) "no copies" 0 m.Metrics.copies;
  Alcotest.(check int) "nothing steered" 0 m.Metrics.steered_narrow;
  Alcotest.(check int) "no splits" 0 m.Metrics.split_uops;
  Alcotest.(check int) "no fatal mispredictions" 0 m.Metrics.wpred_fatal;
  Alcotest.(check int) "no narrow issues" 0
    (m.Metrics.counts.(Counts.issue_narrow));
  Alcotest.(check int) "no imbalance samples" 0
    (m.Metrics.nready_w2n + m.Metrics.nready_n2w)

let test_helper_schemes_steer () =
  let t = trace_of "gcc" in
  List.iter
    (fun scheme ->
      if scheme <> "baseline" then begin
        let m = run scheme t in
        Alcotest.(check bool) (scheme ^ " steers some uops") true
          (m.Metrics.steered_narrow > 0)
      end)
    all_schemes

let test_determinism () =
  let t = trace_of "vpr" in
  let a = run "+CR" t and b = run "+CR" t in
  Alcotest.(check int) "same ticks" a.Metrics.ticks b.Metrics.ticks;
  Alcotest.(check int) "same copies" a.Metrics.copies b.Metrics.copies;
  Alcotest.(check int) "same fatal count" a.Metrics.wpred_fatal b.Metrics.wpred_fatal

let test_fatal_matches_flushes () =
  let t = trace_of "crafty" in
  List.iter
    (fun scheme ->
      let m = run scheme t in
      Alcotest.(check int)
        (scheme ^ " one flush per fatal misprediction")
        m.Metrics.wpred_fatal
        (m.Metrics.counts.(Counts.width_flush)))
    [ "8_8_8"; "+CR"; "+IR" ]

let test_prefetch_accounting () =
  let t = trace_of "gcc" in
  let m = run "+CP" t in
  Alcotest.(check bool) "some prefetches issued" true (m.Metrics.prefetch_copies > 0);
  Alcotest.(check bool) "useful <= issued" true
    (m.Metrics.prefetch_useful <= m.Metrics.prefetch_copies);
  Alcotest.(check bool) "prefetches are copies" true
    (m.Metrics.prefetch_copies <= m.Metrics.copies);
  let no_cp = run "+CR" t in
  Alcotest.(check int) "CR stack has no prefetches" 0 no_cp.Metrics.prefetch_copies

let test_splits_only_with_ir () =
  let t = trace_of "bzip2" in
  List.iter
    (fun scheme ->
      let m = run scheme t in
      let expect_splits =
        scheme = "+IR" || scheme = "+IR(nodest)"
      in
      if not expect_splits then
        Alcotest.(check int) (scheme ^ " no splits") 0 m.Metrics.split_uops)
    all_schemes

let test_cycles_positive_and_bounded () =
  let t = trace_of "mcf" in
  List.iter
    (fun scheme ->
      let m = run scheme t in
      Alcotest.(check bool) (scheme ^ " progress") true (m.Metrics.ticks > 0);
      Alcotest.(check bool)
        (scheme ^ " ipc sane")
        true
        (Metrics.ipc m > 0.01 && Metrics.ipc m <= 6.))
    all_schemes

let test_steered_le_committed () =
  let t = trace_of "parser" in
  List.iter
    (fun scheme ->
      let m = run scheme t in
      Alcotest.(check bool) (scheme ^ " steered <= committed") true
        (m.Metrics.steered_narrow <= m.Metrics.committed))
    all_schemes

let test_wpred_outcomes_cover_value_producers () =
  let t = trace_of "gap" in
  let m = run "8_8_8" t in
  let outcomes =
    m.Metrics.wpred_correct + m.Metrics.wpred_fatal + m.Metrics.wpred_nonfatal
  in
  (* every committed value-producing uop is classified at least once;
     resteered uops classify twice, so outcomes >= producers *)
  let producers =
    let soa = Trace.soa t in
    List.length
      (List.filter
         (fun i -> Hc_isa.Uop_soa.has_dest soa i || Hc_isa.Uop_soa.writes_flags soa i)
         (List.init (Trace.length t) Fun.id))
  in
  Alcotest.(check bool)
    (Printf.sprintf "classifications (%d) cover producers (%d)" outcomes producers)
    true
    (outcomes >= producers)

let test_confidence_gate_reduces_fatal () =
  (* the paper's 2.11% -> 0.83% claim, as a direction *)
  let t = trace_of ~length:8_000 "gcc" in
  let gated = run "+CR" t in
  let cfg =
    { (Config.with_scheme Config.default (Config.find_scheme "+CR")) with
      Config.confidence_gate = false }
  in
  let ungated = run ~cfg "+CR" t in
  Alcotest.(check bool)
    (Printf.sprintf "gated fatal (%.2f%%) < ungated (%.2f%%)"
       (Metrics.wpred_fatal_pct gated)
       (Metrics.wpred_fatal_pct ungated))
    true
    (Metrics.wpred_fatal_pct gated < Metrics.wpred_fatal_pct ungated)

let test_lr_reduces_copies () =
  let t = trace_of ~length:8_000 "gcc" in
  let br = run "+BR" t in
  let lr = run "+LR" t in
  Alcotest.(check bool)
    (Printf.sprintf "LR cuts copies (%.1f%% -> %.1f%%)" (Metrics.copy_pct br)
       (Metrics.copy_pct lr))
    true
    (Metrics.copy_pct lr < Metrics.copy_pct br)

let test_br_reduces_copies_and_steers_more () =
  let t = trace_of ~length:8_000 "gcc" in
  let base = run "8_8_8" t in
  let br = run "+BR" t in
  Alcotest.(check bool) "BR steers more" true
    (Metrics.steered_pct br > Metrics.steered_pct base);
  Alcotest.(check bool) "BR cuts copies" true
    (Metrics.copy_pct br < Metrics.copy_pct base)

let test_cr_steers_more () =
  let t = trace_of ~length:8_000 "gcc" in
  let lr = run "+LR" t in
  let cr = run "+CR" t in
  Alcotest.(check bool) "CR steers more than LR" true
    (Metrics.steered_pct cr > Metrics.steered_pct lr)

let test_custom_machine () =
  (* a helper with no confidence gating still completes correctly *)
  let t = trace_of ~length:2_000 "eon" in
  let cfg =
    { (Config.with_scheme Config.default (Config.find_scheme "+IR")) with
      Config.confidence_gate = false; iq_size = 8; rob_size = 32;
      decode_width = 2; commit_width = 2; mob_size = 8 }
  in
  let m = run ~cfg "+IR" t in
  Alcotest.(check int) "tiny machine still commits all" (Trace.length t)
    m.Metrics.committed

let test_invalid_config_rejected () =
  let t = trace_of ~length:100 "eon" in
  let cfg = { Config.default with Config.issue_width = 0 } in
  Alcotest.check_raises "invalid config"
    (Invalid_argument "Pipeline: issue_width = 0 must be positive") (fun () ->
      ignore (run ~cfg "+IR" t))

(* A completion that never arrives is the only way to wedge a valid
   machine: once everything else has drained, the run must stop at once
   with a diagnosis naming the stuck ROB head, not spin on. *)
let test_deadlock_diagnosed () =
  let t = trace_of ~length:2_000 "mcf" in
  let stuck = 700 in
  let t0 = Sys.time () in
  match
    Pipeline.For_testing.run_dropping_completion ~trace_idx:stuck
      ~cfg:Config.baseline ~decide:Hc_steering.Policy.decide
      ~scheme_name:"baseline" t
  with
  | _ -> Alcotest.fail "a wedged machine finished its run"
  | exception Pipeline.Deadlock d ->
    let elapsed = Sys.time () -. t0 in
    Alcotest.(check bool) "diagnosed within a second" true (elapsed < 1.0);
    ( match d.Pipeline.head with
    | Some h ->
      Alcotest.(check int) "names the stuck head" stuck h.Pipeline.trace_idx
    | None -> Alcotest.fail "deadlock reported an empty ROB" );
    Alcotest.(check bool) "younger uops wait behind the head" true
      (d.Pipeline.rob > 1);
    let msg = Pipeline.deadlock_message d in
    let needle = Printf.sprintf "trace index %d " stuck in
    let n = String.length needle in
    let rec found i =
      i + n <= String.length msg && (String.sub msg i n = needle || found (i + 1))
    in
    Alcotest.(check bool) "message names the trace index" true (found 0)

(* The pools recycle nodes at commit and values when their last holder
   lets go, so a run's arena follows the machine's window, not the trace:
   30k uops must fit in about what the ROB, both issue queues and the
   rename table hold at once (128-144 nodes and 126-130 values on the
   default machine). An arena that never reused a record would hand out
   one per dispatched node and per value, tens of thousands here. *)
let test_arena_window_bounded () =
  let slack = 64 in
  List.iter
    (fun bench ->
      let t = trace_of ~length:30_000 bench in
      List.iter
        (fun scheme ->
          let cfg = Config.with_scheme Config.default (Config.find_scheme scheme) in
          ignore (run ~cfg scheme t);
          let nodes, values, _ = Pipeline.For_testing.arena_high_water () in
          let window = cfg.Config.rob_size + (2 * cfg.Config.iq_size) in
          let label what = Printf.sprintf "%s %s: %s" bench scheme what in
          Alcotest.(check bool)
            (label (Printf.sprintf "%d nodes <= %d" nodes (window + slack)))
            true
            (nodes <= window + slack);
          Alcotest.(check bool)
            (label
               (Printf.sprintf "%d values <= %d" values
                  (window + Hc_isa.Reg.count + slack)))
            true
            (values <= window + Hc_isa.Reg.count + slack))
        [ "baseline"; "+IR"; "+CP" ])
    [ "mcf"; "bzip2" ]

(* Each queued node is linked to the values it waits on, in every run
   (the links drive issue wakeup; under accounting the census reads them
   too). A wakeup unlinks the links it consumes and those that can no
   longer act, and a value's remaining links go back to the arena when
   the value is freed. So the links in use follow the waiting nodes, a
   few per queue slot (at most 240 over the 12 profiles and the policy
   stack at 30k and 60k uops). Links never reused number one per link
   ever made, tens of thousands here, and grow with the trace. *)
let test_census_edges_window_bounded () =
  let cfg = Config.with_scheme Config.default (Config.find_scheme "+IR") in
  let bound = cfg.Config.rob_size + (2 * cfg.Config.iq_size) + 64 in
  List.iter
    (fun name ->
      List.iter
        (fun (length, accounting) ->
          let t = trace_of ~length name in
          ignore
            (Pipeline.run ~accounting ~cfg ~decide:Hc_steering.Policy.decide
               ~scheme_name:"+IR" t);
          let _, _, edges = Pipeline.For_testing.arena_high_water () in
          Alcotest.(check bool)
            (Printf.sprintf "%s +IR at %d uops, accounting %b: %d edges <= %d"
               name length accounting edges bound)
            true (edges <= bound))
        [ (30_000, true); (60_000, true); (30_000, false); (60_000, false) ])
    [ "mcf"; "gzip"; "vpr" ]

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "commits whole trace" `Quick test_commits_whole_trace;
      Alcotest.test_case "baseline is monolithic" `Quick test_baseline_is_monolithic;
      Alcotest.test_case "helper schemes steer" `Quick test_helper_schemes_steer;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "fatal = flush count" `Quick test_fatal_matches_flushes;
      Alcotest.test_case "prefetch accounting" `Quick test_prefetch_accounting;
      Alcotest.test_case "splits only with IR" `Quick test_splits_only_with_ir;
      Alcotest.test_case "cycles sane" `Quick test_cycles_positive_and_bounded;
      Alcotest.test_case "steered <= committed" `Quick test_steered_le_committed;
      Alcotest.test_case "prediction coverage" `Quick
        test_wpred_outcomes_cover_value_producers;
      Alcotest.test_case "confidence gate reduces fatal" `Quick
        test_confidence_gate_reduces_fatal;
      Alcotest.test_case "LR reduces copies" `Quick test_lr_reduces_copies;
      Alcotest.test_case "BR trajectory" `Quick test_br_reduces_copies_and_steers_more;
      Alcotest.test_case "CR steers more" `Quick test_cr_steers_more;
      Alcotest.test_case "tiny custom machine" `Quick test_custom_machine;
      Alcotest.test_case "invalid config rejected" `Quick test_invalid_config_rejected;
      Alcotest.test_case "deadlock diagnosed" `Quick test_deadlock_diagnosed;
      Alcotest.test_case "arena bounded by the window" `Quick
        test_arena_window_bounded;
      Alcotest.test_case "census edges bounded by the window" `Quick
        test_census_edges_window_bounded;
    ] )
