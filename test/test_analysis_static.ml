(* The static width-inference engine: abstract-domain transfers, the
   forward pass's soundness gate, the linter's diagnostics, and the
   static_888 oracle's zero-recovery guarantee. *)

module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg
module Uop = Hc_isa.Uop
module Uop_soa = Hc_isa.Uop_soa
module Semantics = Hc_isa.Semantics
module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Trace = Hc_trace.Trace
module Config = Hc_sim.Config
module Metrics = Hc_sim.Metrics
module Counts = Hc_obs.Counts
module Absval = Hc_analysis.Absval
module Static = Hc_analysis.Static
module Lint = Hc_analysis.Lint

let rng = Random.State.make [| 0x57a71c; 2006 |]

let rand32 () = Int64.to_int (Random.State.int64 rng 0x1_0000_0000L)

(* partially known abstraction containing both values *)
let pair_abs v w = Absval.join (Absval.const v) (Absval.const w)

(* ----- abstract domain ----- *)

let test_transfer_exact_on_consts () =
  List.iter
    (fun op ->
      for _ = 1 to 25 do
        let vals = [ rand32 (); rand32 (); rand32 () ] in
        let abs = Absval.transfer op (List.map Absval.const vals) in
        match (Semantics.eval op vals, abs) with
        | Some r, Some a ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s exact on constants" (Opcode.to_string op))
            (Some r) (Absval.to_const a)
        | None, None -> ()
        | Some _, None | None, Some _ ->
          Alcotest.failf "%s: transfer/eval disagree on producing a result"
            (Opcode.to_string op)
      done)
    Opcode.all

let test_add_partial_known () =
  (* low nibble unknown, upper 28 bits proven zero on both operands *)
  let a = pair_abs 3 12 and b = pair_abs 5 10 in
  let sum = Absval.add a b in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          Alcotest.(check bool) "sum contained" true
            (Absval.contains sum (x + y)))
        [ 5; 10 ])
    [ 3; 12 ];
  Alcotest.(check bool) "bounded sum provably narrow" true
    (Absval.is_narrow ~bits:8 sum);
  Alcotest.(check bool) "top + top proves nothing" true
    (Absval.equal Absval.top (Absval.add Absval.top Absval.top))

let test_shift_partial_known () =
  let a = pair_abs 3 12 in
  let shifted = Absval.shl a (Absval.const 2) in
  List.iter
    (fun x ->
      Alcotest.(check bool) "shifted value contained" true
        (Absval.contains shifted (x lsl 2)))
    [ 3; 12 ];
  Alcotest.(check int) "low bits provably zero" 2
    (Absval.trailing_known_zeros shifted);
  Alcotest.(check bool) "unknown amount gives top" true
    (Absval.equal Absval.top (Absval.shl (Absval.const 1) Absval.top))

let test_mul_width_bound () =
  let a = pair_abs 5 9 and b = pair_abs 3 7 in
  let p = Absval.mul a b in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          Alcotest.(check bool) "product contained" true
            (Absval.contains p (x * y)))
        [ 3; 7 ])
    [ 5; 9 ];
  (* 4-bit times 3-bit magnitudes: bits >= 7 provably zero *)
  Alcotest.(check bool) "product provably narrow" true
    (Absval.is_narrow ~bits:8 p)

let test_narrow_mirrors_detector () =
  for _ = 1 to 500 do
    let v = rand32 () in
    let a = Absval.const v in
    Alcotest.(check bool)
      (Printf.sprintf "is_narrow(const %x) = Detector.narrow" v)
      (Hc_isa.Detector.narrow ~bits:8 v)
      (Absval.is_narrow ~bits:8 a)
  done

(* ----- the forward pass ----- *)

let test_soundness_all_seeds () =
  (* the tentpole invariant: across every seed workload, no uop the pass
     calls provably narrow has wide ground truth *)
  List.iter
    (fun (p : Profile.t) ->
      let tr = Generator.generate_sliced ~length:20_000 p in
      let st = Static.analyze tr in
      Alcotest.(check int)
        (p.Profile.name ^ ": zero soundness violations")
        0
        (List.length (Static.soundness_violations st tr));
      Alcotest.(check bool)
        (p.Profile.name ^ ": steerable is a subset of provable")
        true
        (st.Static.steerable_count <= st.Static.provable_count);
      Alcotest.(check bool)
        (p.Profile.name ^ ": the pass proves something")
        true
        (st.Static.steerable_count > 0))
    Profile.spec_int

let test_verdict_lookup () =
  let p = Profile.find_spec_int "gcc" in
  let tr = Generator.generate_sliced ~length:4_000 p in
  let st = Static.analyze tr in
  let in_window = Uop_soa.id (Trace.soa tr) 0 in
  Alcotest.(check bool) "first uop has a verdict" true
    (Static.verdict st in_window <> None);
  let foreign = in_window + 1_000_000 in
  Alcotest.(check bool) "out-of-window uop is never provable" false
    (Static.provably_narrow st foreign);
  Alcotest.(check bool) "out-of-window uop is never steerable" false
    (Static.steerable_uop st foreign);
  Alcotest.(check (option bool)) "out-of-window verdict is None" None
    (Static.verdict st foreign);
  Alcotest.(check bool) "out-of-window uop is not in range" false
    (Static.in_range st foreign)

let test_sliced_window_lookup () =
  (* a Trace.sub slice preserves uop ids, so the analyzed window starts
     at a first_id well above zero: ids below it (including every uop of
     the un-sliced prefix) must read as no-verdict, never as a silent
     "not provable" — and certainly never index the arrays off by one *)
  let p = Profile.find_spec_int "gcc" in
  let base = Generator.generate_sliced ~length:4_000 p in
  let pos = 1_000 and len = 2_000 in
  let sliced = Trace.sub base ~pos ~len in
  let st = Static.analyze sliced in
  let bd = Static.analyze_bidir sliced in
  let id tr i = Uop_soa.id (Trace.soa tr) i in
  Alcotest.(check int) "first_id is the slice's first uop id"
    (id sliced 0) st.Static.first_id;
  let before = id base (pos - 1) in
  Alcotest.(check bool) "uop before the window is not in range" false
    (Static.in_range st before);
  Alcotest.(check (option bool)) "uop before the window has no verdict" None
    (Static.verdict st before);
  Alcotest.(check (option bool)) "nor a bidir verdict" None
    (Static.bidir_verdict bd before);
  let first = id sliced 0 and last = id sliced (len - 1) in
  Alcotest.(check bool) "first uop of the window is in range" true
    (Static.in_range st first);
  Alcotest.(check bool) "last uop of the window is in range" true
    (Static.in_range st last);
  let after = id base (pos + len) in
  Alcotest.(check bool) "uop just past the window is not in range" false
    (Static.in_range st after);
  Alcotest.(check (option bool)) "uop just past the window has no verdict"
    None (Static.verdict st after);
  (* the in-window verdicts agree between the lookups and the arrays *)
  for i = 0 to len - 1 do
    let u = id sliced i in
    if Static.verdict st u <> Some st.Static.provable.(i) then
      Alcotest.failf "verdict lookup disagrees with the array at %d" i;
    if Static.bidir_verdict bd u <> Some bd.Static.bidir_provable.(i) then
      Alcotest.failf "bidir verdict lookup disagrees with the array at %d" i
  done

let test_empty_trace () =
  let p = Profile.find_spec_int "gcc" in
  let empty = Trace.of_soa ~name:"empty" ~profile:p (Uop_soa.of_uops [||]) in
  let st = Static.analyze empty in
  Alcotest.(check int) "no provable uops" 0 st.Static.provable_count;
  Alcotest.(check int) "no steerable uops" 0 st.Static.steerable_count;
  let bd = Static.analyze_bidir empty in
  Alcotest.(check int) "no bidir-provable uops" 0
    bd.Static.bidir_provable_count;
  Alcotest.(check int) "no livebits violations" 0
    (List.length
       (Hc_analysis.Livebits.soundness_violations bd.Static.livebits empty));
  let stray = Uop_soa.id (Trace.soa (Generator.generate_sliced ~length:50 p)) 0 in
  Alcotest.(check (option bool)) "any uop is out of the empty window" None
    (Static.verdict st stray);
  Alcotest.(check bool) "empty trace lints clean" false
    (Lint.has_errors (Lint.check_trace ~file:"empty" empty))

(* ----- the bidirectional fixpoint ----- *)

let test_bidir_all_seeds () =
  (* the tentpole bound: on every seed workload the bidirectional join
     proves at least as much as the forward pass (monotonicity), strictly
     more on most, with zero soundness violations in either direction *)
  let strict = ref 0 in
  List.iter
    (fun (p : Profile.t) ->
      let tr = Generator.generate_sliced ~length:10_000 p in
      let bd = Static.analyze_bidir tr in
      let fwd = bd.Static.base in
      Alcotest.(check bool)
        (p.Profile.name ^ ": bidir provable contains forward provable")
        true
        (bd.Static.bidir_provable_count >= fwd.Static.provable_count);
      Alcotest.(check bool)
        (p.Profile.name ^ ": bidir steerable contains forward steerable")
        true
        (bd.Static.bidir_steerable_count >= fwd.Static.steerable_count);
      if bd.Static.bidir_provable_count > fwd.Static.provable_count then
        incr strict;
      (* per-uop containment, not just the counts *)
      Array.iteri
        (fun i fp ->
          if fp && not bd.Static.bidir_provable.(i) then
            Alcotest.failf "%s: forward-provable uop %d not bidir-provable"
              p.Profile.name i)
        fwd.Static.provable;
      Alcotest.(check int)
        (p.Profile.name ^ ": zero forward soundness violations (E110)")
        0
        (List.length (Static.soundness_violations fwd tr));
      Alcotest.(check int)
        (p.Profile.name ^ ": zero live-bits soundness violations (E111)")
        0
        (List.length
           (Hc_analysis.Livebits.soundness_violations bd.Static.livebits tr)))
    Profile.spec_int;
  Alcotest.(check bool) "bidir strictly tighter on at least 6 seeds" true
    (!strict >= 6)

(* ----- linter ----- *)

let gcc_trace = lazy (Generator.generate_sliced ~length:6_000 (Profile.find_spec_int "gcc"))

let with_uop tr i u =
  let uops = Array.copy (Trace.uops tr) in
  uops.(i) <- u;
  Trace.of_soa ~name:tr.Trace.name ~profile:tr.Trace.profile (Uop_soa.of_uops uops)

let find_uop tr pred =
  let found = ref None in
  Array.iteri
    (fun i u -> if !found = None && pred u then found := Some (i, u))
    (Trace.uops tr);
  match !found with
  | Some iu -> iu
  | None -> Alcotest.fail "fixture uop not found in trace"

let has_error code diags =
  List.exists
    (fun (d : Lint.diagnostic) ->
      d.Lint.code = code && d.Lint.severity = Lint.Error)
    diags

let test_lint_clean () =
  let tr = Lazy.force gcc_trace in
  let diags =
    Lint.check_trace ~file:"gcc" ~expected_profile:(Profile.find_spec_int "gcc")
      tr
  in
  Alcotest.(check bool) "no errors" false (Lint.has_errors diags);
  Alcotest.(check int) "no warnings" 0 (Lint.count Lint.Warning diags)

let test_lint_ul1_monotonicity () =
  let tr = Lazy.force gcc_trace in
  let i, u =
    find_uop tr (fun u -> u.Uop.op = Opcode.Load && not u.Uop.dl0_miss)
  in
  let bad = with_uop tr i { u with Uop.ul1_miss = true } in
  Alcotest.(check bool) "E105 reported" true
    (has_error "E105" (Lint.check_trace bad))

let test_lint_id_density () =
  let tr = Lazy.force gcc_trace in
  let u = (Trace.uops tr).(100) in
  let bad = with_uop tr 100 { u with Uop.id = u.Uop.id + 7 } in
  Alcotest.(check bool) "E101 reported" true
    (has_error "E101" (Lint.check_trace bad))

let test_lint_result_consistency () =
  let tr = Lazy.force gcc_trace in
  let i, u = find_uop tr (fun u -> u.Uop.op = Opcode.Add) in
  let bad = with_uop tr i { u with Uop.result = u.Uop.result lxor 1 } in
  Alcotest.(check bool) "E106 reported" true
    (has_error "E106" (Lint.check_trace bad))

let test_lint_mem_addr () =
  let tr = Lazy.force gcc_trace in
  let i, u = find_uop tr (fun u -> u.Uop.op = Opcode.Load) in
  let bad = with_uop tr i { u with Uop.mem_addr = u.Uop.mem_addr lxor 0x10 } in
  Alcotest.(check bool) "E107 reported" true
    (has_error "E107" (Lint.check_trace bad))

let test_lint_flag_pairing () =
  let tr = Lazy.force gcc_trace in
  let i, u = find_uop tr (fun u -> u.Uop.op = Opcode.Branch_cond) in
  let bad = with_uop tr i { u with Uop.srcs = []; src_vals = [] } in
  Alcotest.(check bool) "E104 reported" true
    (has_error "E104" (Lint.check_trace bad))

let test_lint_report_cap () =
  (* a systematic corruption must not flood the report: per-code cap plus
     an Info overflow summary *)
  let tr = Lazy.force gcc_trace in
  let uops =
    Array.map
      (fun u ->
        if u.Uop.op = Opcode.Load && not u.Uop.dl0_miss then
          { u with Uop.ul1_miss = true }
        else u)
      (Trace.uops tr)
  in
  let diags =
    Lint.check_trace
      (Trace.of_soa ~name:tr.Trace.name ~profile:tr.Trace.profile
         (Uop_soa.of_uops uops))
  in
  Alcotest.(check bool) "errors capped" true (Lint.count Lint.Error diags <= 5);
  Alcotest.(check bool) "overflow summarized" true
    (Lint.count Lint.Info diags >= 1)

let has_warning code diags =
  List.exists
    (fun (d : Lint.diagnostic) ->
      d.Lint.code = code && d.Lint.severity = Lint.Warning)
    diags

let test_lint_e111_regression () =
  (* pinned regression for the live-bits soundness gate: corrupt the
     analysis verdict — claim dead some high bits that are genuinely
     live — and the E111 mutation check must catch it. A clean record
     must stay clean. *)
  let tr = Lazy.force gcc_trace in
  let bd = Static.analyze_bidir tr in
  let lb = bd.Static.livebits in
  Alcotest.(check bool) "clean record passes the E111 gate" false
    (Lint.has_errors (Lint.check_analysis ~file:"gcc" bd tr));
  let hi = Hc_analysis.Livebits.hi_mask ~bits:8 in
  let live = Array.copy lb.Hc_analysis.Livebits.live in
  (* clear the high bits of the first 20 masks that have live high bits:
     the corrupt record now claims those bits dead *)
  let corrupted = ref 0 in
  Array.iteri
    (fun i m ->
      if !corrupted < 20 && m land hi <> 0 then begin
        live.(i) <- m land lnot hi;
        incr corrupted
      end)
    live;
  Alcotest.(check bool) "fixture found live-high uops to corrupt" true
    (!corrupted > 0);
  let corrupt_bd =
    { bd with Static.livebits = { lb with Hc_analysis.Livebits.live } }
  in
  let diags = Lint.check_analysis ~file:"gcc" corrupt_bd tr in
  Alcotest.(check bool) "E111 reported on the corrupt record" true
    (has_error "E111" diags)

let test_lint_w203_regression () =
  (* pinned regression for the monotonicity warning: a hand-built record
     whose bidirectional bound undercuts the forward bound must trip
     W203 (analyze_bidir can never produce one — the join asserts) *)
  let tr = Lazy.force gcc_trace in
  let bd = Static.analyze_bidir tr in
  Alcotest.(check bool) "clean record carries no W203" false
    (has_warning "W203" (Lint.check_analysis ~file:"gcc" bd tr));
  let broken =
    { bd with
      Static.bidir_provable_count = bd.Static.base.Static.provable_count - 1
    }
  in
  let diags = Lint.check_analysis ~file:"gcc" broken tr in
  Alcotest.(check bool) "W203 reported on the non-monotone record" true
    (has_warning "W203" diags);
  Alcotest.(check bool) "W203 alone does not fail the gate" false
    (Lint.has_errors diags)

let test_lint_config () =
  Alcotest.(check int) "default config clean" 0
    (List.length (Lint.check_config Config.default));
  let bad = { Config.default with Config.narrow_bits = 0 } in
  Alcotest.(check bool) "E201 reported" true
    (has_error "E201" (Lint.check_config bad));
  let inert =
    { Config.default with
      Config.scheme =
        { Config.helper = false; s888 = true; br = false; lr = false;
          cr = false; cp = false; ir = Config.Ir_off } }
  in
  let diags = Lint.check_config inert in
  Alcotest.(check int) "W202 is a warning, not an error" 1
    (Lint.count Lint.Warning diags);
  Alcotest.(check bool) "inert scheme alone passes the gate" false
    (Lint.has_errors diags)

(* ----- the static_888 oracle ----- *)

let test_oracle_zero_recoveries () =
  let runs = Hc_core.Runs.create ~length:8_000 () in
  let p = Profile.find_spec_int "gcc" in
  Hc_core.Runs.ensure runs [ ("8_8_8", p); ("static_888", p) ];
  let oracle = Hc_core.Runs.metrics runs ~scheme:"static_888" p in
  Alcotest.(check int) "zero width flushes" 0
    (oracle.Metrics.counts.(Counts.width_flush));
  Alcotest.(check int) "zero demotions" 0 oracle.Metrics.wide_demoted;
  Alcotest.(check bool) "attribution consistent" true
    (Metrics.attrib_consistent oracle);
  let bd = Hc_core.Runs.static_info runs (Hc_core.Runs.trace runs p) in
  let st = bd.Static.base in
  Alcotest.(check int) "oracle steers exactly the provable bound"
    st.Static.steerable_count oracle.Metrics.steered_narrow;
  Alcotest.(check (option int)) "bound attached to oracle metrics"
    (Some st.Static.steerable_count) oracle.Metrics.static_narrow_bound;
  let pred = Hc_core.Runs.metrics runs ~scheme:"8_8_8" p in
  Alcotest.(check (option int)) "bound attached to predictor metrics"
    (Some st.Static.steerable_count) pred.Metrics.static_narrow_bound;
  Alcotest.(check (option int)) "bidir bound attached to predictor metrics"
    (Some bd.Static.bidir_steerable_count) pred.Metrics.static_bidir_bound

let test_bidir_oracle_zero_recoveries () =
  (* the tightened oracle: steers strictly more than the forward oracle
     (dead-width proofs included, tagged Rlive) yet still commits zero
     width-violation recoveries by construction *)
  let runs = Hc_core.Runs.create ~length:8_000 () in
  let p = Profile.find_spec_int "gcc" in
  Hc_core.Runs.ensure runs [ ("static_888", p); ("static_bidir", p) ];
  let fwd = Hc_core.Runs.metrics runs ~scheme:"static_888" p in
  let oracle = Hc_core.Runs.metrics runs ~scheme:"static_bidir" p in
  Alcotest.(check int) "zero width flushes" 0
    (oracle.Metrics.counts.(Counts.width_flush));
  Alcotest.(check int) "zero demotions" 0 oracle.Metrics.wide_demoted;
  Alcotest.(check bool) "attribution consistent" true
    (Metrics.attrib_consistent oracle);
  let bd = Hc_core.Runs.static_info runs (Hc_core.Runs.trace runs p) in
  Alcotest.(check int) "oracle steers exactly the bidir bound"
    bd.Static.bidir_steerable_count oracle.Metrics.steered_narrow;
  Alcotest.(check bool) "bidir oracle steers at least the forward oracle"
    true
    (oracle.Metrics.steered_narrow >= fwd.Metrics.steered_narrow);
  Alcotest.(check (option int)) "bidir bound attached"
    (Some bd.Static.bidir_steerable_count) oracle.Metrics.static_bidir_bound

let suite =
  ( "analysis_static",
    [
      Alcotest.test_case "transfers exact on constants" `Quick
        test_transfer_exact_on_consts;
      Alcotest.test_case "add with partial knowledge" `Quick
        test_add_partial_known;
      Alcotest.test_case "shift with partial knowledge" `Quick
        test_shift_partial_known;
      Alcotest.test_case "mul magnitude bound" `Quick test_mul_width_bound;
      Alcotest.test_case "is_narrow mirrors Detector.narrow" `Quick
        test_narrow_mirrors_detector;
      Alcotest.test_case "soundness on every seed workload" `Slow
        test_soundness_all_seeds;
      Alcotest.test_case "verdict lookup bounds" `Quick test_verdict_lookup;
      Alcotest.test_case "sliced window lookup" `Quick
        test_sliced_window_lookup;
      Alcotest.test_case "empty trace" `Quick test_empty_trace;
      Alcotest.test_case "bidir bound on every seed workload" `Slow
        test_bidir_all_seeds;
      Alcotest.test_case "lint: clean trace" `Quick test_lint_clean;
      Alcotest.test_case "lint: ul1 without dl0" `Quick
        test_lint_ul1_monotonicity;
      Alcotest.test_case "lint: id density" `Quick test_lint_id_density;
      Alcotest.test_case "lint: eval result mismatch" `Quick
        test_lint_result_consistency;
      Alcotest.test_case "lint: memory address" `Quick test_lint_mem_addr;
      Alcotest.test_case "lint: flag pairing" `Quick test_lint_flag_pairing;
      Alcotest.test_case "lint: per-code report cap" `Quick
        test_lint_report_cap;
      Alcotest.test_case "lint: E111 pinned regression" `Quick
        test_lint_e111_regression;
      Alcotest.test_case "lint: W203 pinned regression" `Quick
        test_lint_w203_regression;
      Alcotest.test_case "lint: configurations" `Quick test_lint_config;
      Alcotest.test_case "static_888 oracle: zero recoveries" `Slow
        test_oracle_zero_recoveries;
      Alcotest.test_case "static_bidir oracle: zero recoveries" `Slow
        test_bidir_oracle_zero_recoveries;
    ] )
