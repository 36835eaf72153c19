(* Property-based fuzzing of the whole simulator: random (but valid)
   machine configurations and workload profiles must always complete the
   trace while preserving the structural invariants. This is the
   pipeline's crash-and-deadlock net. *)

module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Accounting = Hc_sim.Accounting
module Metrics = Hc_sim.Metrics
module Counts = Hc_obs.Counts
module Sample = Hc_obs.Sample
module Sink = Hc_obs.Sink
module Artifact_cache = Hc_core.Artifact_cache
module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator

let config_gen =
  let open QCheck.Gen in
  let* iq_size = int_range 6 48 in
  let* issue_width = int_range 1 4 in
  let* decode_width = int_range 2 8 in
  let* rob_size = int_range 24 160 in
  let* mob_size = int_range 6 64 in
  let* copy_latency = int_range 1 4 in
  let* branch_penalty = int_range 0 20 in
  let* width_flush_penalty = int_range 0 12 in
  let* narrow_bits = int_range 4 24 in
  let* confidence_gate = bool in
  let* helper_fast_clock = bool in
  let* replicated = bool in
  let* replay = bool in
  let* regs = int_range 16 160 in
  let* commit_width = int_range 1 8 in
  (* past 2 048 cycles a load's completion wraps the 4 096-tick event
     wheel *)
  let* mem_latency =
    frequency [ (3, int_range 20 600); (1, int_range 600 2_200) ]
  in
  let* memory_model = oneofl [ Config.Mem_trace_flags; Config.Mem_cache_sim ] in
  let* branch_model = oneofl [ Config.Br_trace_flags; Config.Br_gshare ] in
  let* frontend_model = oneofl [ Config.Fe_ideal; Config.Fe_trace_cache ] in
  let* scheme_idx = int_range 0 (List.length Config.scheme_stack - 1) in
  let scheme = snd (List.nth Config.scheme_stack scheme_idx) in
  return
    { Config.default with
      Config.iq_size; issue_width; decode_width; rob_size; mob_size;
      copy_latency; branch_penalty; width_flush_penalty; narrow_bits;
      confidence_gate; helper_fast_clock;
      replicated_regfile = replicated; replay_recovery = replay;
      wide_regs = regs; narrow_regs = regs; commit_width; mem_latency;
      memory_model; branch_model; frontend_model; scheme }

let bench_gen =
  QCheck.Gen.oneofl [ "bzip2"; "gcc"; "mcf"; "gzip"; "eon"; "twolf" ]

let print_case (cfg, bench) =
  Format.asprintf
    "%s under iq=%d issue=%d commit=%d rob=%d mob=%d bits=%d repl=%b \
     replay=%b mem=%d cache_sim=%b gshare=%b tcache=%b"
    bench cfg.Config.iq_size cfg.Config.issue_width cfg.Config.commit_width
    cfg.Config.rob_size cfg.Config.mob_size cfg.Config.narrow_bits
    cfg.Config.replicated_regfile cfg.Config.replay_recovery
    cfg.Config.mem_latency
    (cfg.Config.memory_model = Config.Mem_cache_sim)
    (cfg.Config.branch_model = Config.Br_gshare)
    (cfg.Config.frontend_model = Config.Fe_trace_cache)

let arb =
  QCheck.make ~print:print_case QCheck.Gen.(pair config_gen bench_gen)

let trace_cache = Hashtbl.create 8

let trace_of bench =
  match Hashtbl.find_opt trace_cache bench with
  | Some t -> t
  | None ->
    let t = Generator.generate_sliced ~length:1_500 (Profile.find_spec_int bench) in
    Hashtbl.add trace_cache bench t;
    t

let prop_simulator_total =
  QCheck.Test.make ~name:"any valid machine completes any trace" ~count:60 arb
    (fun (cfg, bench) ->
      ( match Config.validate cfg with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "generated invalid config: %s" msg );
      let trace = trace_of bench in
      let m =
        Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:"fuzz"
          trace
      in
      let fatal_recoveries =
        m.Metrics.counts.(Counts.width_flush)
        + m.Metrics.counts.(Counts.replay)
      in
      m.Metrics.committed = Hc_trace.Trace.length trace
      && m.Metrics.steered_narrow <= m.Metrics.committed
      && m.Metrics.prefetch_useful <= m.Metrics.prefetch_copies
      && m.Metrics.wpred_fatal = fatal_recoveries
      && (not cfg.Config.replicated_regfile || m.Metrics.copies = 0)
      && m.Metrics.ticks > 0)

(* A run with cycle accounting attached, through the entry point that
   also checks the ready lists and the blocked-occupant census against
   full walks of the issue queues. *)
let run_accounted ?sink cfg trace =
  match
    Pipeline.For_testing.run_ready_checked ?sink ~accounting:true ~cfg
      ~decide:Hc_steering.Policy.decide ~scheme_name:"fuzz" trace
  with
  | m -> m
  | exception Failure msg -> QCheck.Test.fail_reportf "%s" msg

(* The exact invariants off the seeds: with an interval sink and cycle
   accounting attached, the interval deltas re-add to the run's whole
   count vector (activity and stall rows included), every interval
   satisfies the attribution partition and the slot partition, the
   metrics less their [stall] equal the unaccounted run's, and they
   survive an artifact-cache round trip byte-for-byte. *)
let prop_counts_invariants =
  QCheck.Test.make ~name:"aggregate == counts, partition, cache round trip"
    ~count:30
    (QCheck.make
       ~print:(fun (case, interval) ->
         Printf.sprintf "%s interval=%d" (print_case case) interval)
       QCheck.Gen.(pair (pair config_gen bench_gen) (int_range 50 2_000)))
    (fun ((cfg, bench), interval) ->
      let sink = Sink.create ~interval ~tracing:false () in
      let m = run_accounted ~sink cfg (trace_of bench) in
      let widths =
        match m.Metrics.stall with
        | Some w -> w
        | None -> QCheck.Test.fail_reportf "accounted run without stall widths"
      in
      if not (Metrics.stall_consistent m) then
        QCheck.Test.fail_reportf "slot partition broken over the run";
      let plain =
        Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:"fuzz"
          (trace_of bench)
      in
      if Metrics.to_json { m with Metrics.stall = None } <> Metrics.to_json plain
      then QCheck.Test.fail_reportf "accounting changed the metrics";
      let samples = Sink.samples sink in
      if Sample.aggregate samples <> m.Metrics.counts then
        QCheck.Test.fail_reportf "interval aggregate differs from the counts";
      List.iter
        (fun (s : Sample.t) ->
          if not (Counts.attrib_consistent s.Sample.d) then
            QCheck.Test.fail_reportf "attribution partition broken in [%d, %d)"
              s.Sample.t_start s.Sample.t_end;
          if not (Accounting.consistent widths s.Sample.d) then
            QCheck.Test.fail_reportf "slot partition broken in [%d, %d)"
              s.Sample.t_start s.Sample.t_end)
        samples;
      let root = Filename.temp_file "hc_fuzz_cache" "" in
      Sys.remove root;
      let cache = Artifact_cache.create ~root () in
      let profile = Profile.find_spec_int bench in
      Artifact_cache.store_metrics cache ~scheme:"fuzz" ~profile ~length:1_500 m;
      let back =
        Artifact_cache.find_metrics cache ~scheme:"fuzz" ~profile ~length:1_500
      in
      let rec rm_rf path =
        if Sys.is_directory path then begin
          Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      rm_rf root;
      match back with
      | Some b -> Metrics.to_json b = Metrics.to_json m
      | None -> QCheck.Test.fail_reportf "stored metrics did not reload")

(* Splits every helper-capable uop while the wide backlog EWMA is above
   0.3, else steers wide: a verdict that flips as the EWMA decays through
   quiet ticks, which the library stack seldom shows on short traces. *)
let split_while_backlogged ctx i =
  if
    Hc_isa.Opcode.helper_capable (Hc_sim.Steer.op ctx i)
    && ctx.Hc_sim.Steer.backlog_ewma_gt Config.Wide 0.3
  then Hc_sim.Steer.Split
  else Hc_sim.Steer.steer_wide

(* The event horizon against stepping every tick: jumping over quiet
   ticks must change nothing, with cycle accounting on, in the metrics,
   the whole count vector and every 50-tick interval of a sink (which
   bounds each jump by 50 ticks), and in the metrics of a run without a
   sink, whose jumps run to the next event. Under the library policy or
   [split_while_backlogged]. *)
let prop_skip_equals_stepping =
  QCheck.Test.make ~name:"jumping quiet ticks equals stepping every tick"
    ~count:40
    (QCheck.make
       ~print:(fun (case, library) ->
         Printf.sprintf "%s policy=%s" (print_case case)
           (if library then "library" else "split_while_backlogged"))
       QCheck.Gen.(pair (pair config_gen bench_gen) bool))
    (fun ((cfg, bench), library) ->
      let trace = trace_of bench in
      let decide =
        if library then Hc_steering.Policy.decide else split_while_backlogged
      in
      let sampled run =
        let sink = Sink.create ~interval:50 ~tracing:false () in
        let m = run ~sink in
        (m, Sink.samples sink)
      in
      let m, samples =
        sampled (fun ~sink ->
            Pipeline.run ~sink ~accounting:true ~cfg ~decide
              ~scheme_name:"fuzz" trace)
      in
      let r, stepped =
        sampled (fun ~sink ->
            Pipeline.For_testing.run_unskipped ~sink ~accounting:true ~cfg
              ~decide ~scheme_name:"fuzz" trace)
      in
      if Metrics.to_json m <> Metrics.to_json r then
        QCheck.Test.fail_reportf "the metrics JSON differs";
      if m.Metrics.counts <> r.Metrics.counts then
        QCheck.Test.fail_reportf "the count vector differs";
      if List.length samples <> List.length stepped then
        QCheck.Test.fail_reportf "%d intervals against %d"
          (List.length samples) (List.length stepped);
      List.iter2
        (fun (a : Sample.t) (b : Sample.t) ->
          if a <> b then
            QCheck.Test.fail_reportf "interval [%d, %d) differs"
              b.Sample.t_start b.Sample.t_end)
        samples stepped;
      let whole run = Metrics.to_json (run ~cfg ~decide ~scheme_name:"fuzz" trace) in
      if
        whole (Pipeline.run ?sink:None ~accounting:true)
        <> whole (Pipeline.For_testing.run_unskipped ?sink:None ~accounting:true)
      then QCheck.Test.fail_reportf "the metrics JSON differs without a sink";
      true)

(* A plain run with cycle accounting and a 50-tick sink against
   [variant] on the same machine, trace and policy: the metrics JSON,
   the whole count vector and every interval must be equal. *)
let equals_plain_run ~what ~cfg ~decide trace variant =
  let sampled run =
    let sink = Sink.create ~interval:50 ~tracing:false () in
    let m = run ~sink in
    (m, Sink.samples sink)
  in
  let m, samples =
    sampled (fun ~sink ->
        Pipeline.run ~sink ~accounting:true ~cfg ~decide ~scheme_name:"fuzz"
          trace)
  in
  let p, other =
    match sampled variant with
    | r -> r
    | exception e ->
      QCheck.Test.fail_reportf "the %s run raised %s" what (Printexc.to_string e)
  in
  if Metrics.to_json m <> Metrics.to_json p then
    QCheck.Test.fail_reportf "the metrics JSON differs";
  if m.Metrics.counts <> p.Metrics.counts then
    QCheck.Test.fail_reportf "the count vector differs";
  if List.length samples <> List.length other then
    QCheck.Test.fail_reportf "%d intervals against %d" (List.length samples)
      (List.length other);
  List.iter2
    (fun (a : Sample.t) (b : Sample.t) ->
      if a <> b then
        QCheck.Test.fail_reportf "interval [%d, %d) differs" a.Sample.t_start
          a.Sample.t_end)
    samples other;
  true

(* a machine, a profile, and the library policy or [split_while_backlogged] *)
let arb_with_policy =
  QCheck.make
    ~print:(fun (case, library) ->
      Printf.sprintf "%s policy=%s" (print_case case)
        (if library then "library" else "split_while_backlogged"))
    QCheck.Gen.(pair (pair config_gen bench_gen) bool)

let policy library =
  if library then Hc_steering.Policy.decide else split_while_backlogged

(* Recycled records are never read after they are freed: a run that
   scribbles over every node and value as it goes back to its pool must
   equal a plain run, with cycle accounting on (the census's edges and
   re-check ring name records by pool slot). Half the cases split under
   [split_while_backlogged], so flushes collapse many slice groups and
   drop their chain dependences. *)
let prop_poison_changes_nothing =
  QCheck.Test.make ~name:"poisoning freed records changes nothing" ~count:40
    arb_with_policy (fun ((cfg, bench), library) ->
      let decide = policy library and trace = trace_of bench in
      equals_plain_run ~what:"poisoned" ~cfg ~decide trace (fun ~sink ->
          Pipeline.For_testing.run_poisoned ~sink ~accounting:true ~cfg
            ~decide ~scheme_name:"fuzz" trace))

(* Links survive pool growth: a run whose node and value pools restart
   at one record each grows both while the queues, the ROB, the wheel,
   the rename table and the census hold their slots, and must equal a
   plain run. Code that kept a pool's array across an allocation would
   read a stale array here. *)
let prop_pool_growth_changes_nothing =
  QCheck.Test.make ~name:"growing the pools mid-run changes nothing" ~count:40
    arb_with_policy (fun ((cfg, bench), library) ->
      let decide = policy library and trace = trace_of bench in
      equals_plain_run ~what:"growing-pools" ~cfg ~decide trace (fun ~sink ->
          Pipeline.For_testing.run_growing_pools ~sink ~accounting:true ~cfg
            ~decide ~scheme_name:"fuzz" trace))

(* Wakeup-driven issue against the full walk it replaced: on random
   machines, with flush and with replay recovery, with and without cycle
   accounting, each issue queue's ready list must hold, before every
   issue round, exactly the occupants a full walk finds ready (dead
   copies included) in queue order, and the run must equal a plain one
   (its [stall] aside). *)
let prop_ready_lists_match_walk =
  QCheck.Test.make ~name:"ready lists equal the queue walk" ~count:30
    arb_with_policy (fun ((cfg, bench), library) ->
      let decide = policy library and trace = trace_of bench in
      List.iter
        (fun (replay_recovery, accounting) ->
          let cfg = { cfg with Config.replay_recovery } in
          let plain = Pipeline.run ~cfg ~decide ~scheme_name:"fuzz" trace in
          match
            Pipeline.For_testing.run_ready_checked ~accounting ~cfg ~decide
              ~scheme_name:"fuzz" trace
          with
          | m ->
            if
              Metrics.to_json { m with Metrics.stall = None }
              <> Metrics.to_json plain
            then
              QCheck.Test.fail_reportf
                "replay=%b accounting=%b: the checked run's metrics differ"
                replay_recovery accounting
          | exception Failure msg ->
            QCheck.Test.fail_reportf "replay=%b accounting=%b: %s"
              replay_recovery accounting msg)
        [ (false, false); (false, true); (true, false); (true, true) ];
      true)

(* Obs-on bit-identity off the seeds: with a tracing, sampling sink
   attached the metrics JSON equals the untraced run's, a second traced
   run produces a byte-identical Chrome trace, and every opcode-named
   event carries the opcode the trace's records give its index (the
   pipeline reads names from the columns). *)
let prop_tracing_bit_identical =
  QCheck.Test.make ~name:"tracing leaves metrics and Chrome trace identical"
    ~count:20
    (QCheck.make
       ~print:(fun (case, interval) ->
         Printf.sprintf "%s interval=%d" (print_case case) interval)
       QCheck.Gen.(pair (pair config_gen bench_gen) (int_range 50 2_000)))
    (fun ((cfg, bench), interval) ->
      let trace = trace_of bench in
      let run sink =
        Pipeline.run ?sink ~cfg ~decide:Hc_steering.Policy.decide
          ~scheme_name:"fuzz" trace
      in
      let plain = run None in
      let traced () =
        let sink = Sink.create ~interval ~tracing:true () in
        let m = run (Some sink) in
        let chrome =
          Hc_obs.Chrome_trace.to_string
            ~ring:(Sink.events_pushed sink, Sink.events_dropped sink)
            ~events:(Sink.events sink) ~samples:(Sink.samples sink) ()
        in
        (m, chrome, Sink.events sink)
      in
      let m1, chrome1, events = traced () in
      let _, chrome2, _ = traced () in
      if Metrics.to_json m1 <> Metrics.to_json plain then
        QCheck.Test.fail_reportf "traced metrics differ from the untraced run";
      if chrome1 <> chrome2 then
        QCheck.Test.fail_reportf "two traced runs wrote different Chrome traces";
      let records = Hc_trace.Trace.uops trace in
      List.iter
        (fun (e : Hc_obs.Event.t) ->
          if e.Hc_obs.Event.trace_idx >= 0
             && e.Hc_obs.Event.name <> "slice"
             && e.Hc_obs.Event.name
                <> Hc_isa.Opcode.to_string records.(e.Hc_obs.Event.trace_idx).Hc_isa.Uop.op
          then
            QCheck.Test.fail_reportf "event %s at trace index %d names the wrong opcode"
              e.Hc_obs.Event.name e.Hc_obs.Event.trace_idx)
        events;
      events <> [])

(* bidir ⊇ forward off the seeds: on random workloads and lengths, every
   forward-provable uop is bidirectionally provable (and steerable stays
   a superset too), position by position. *)
let prop_bidir_contains_forward =
  QCheck.Test.make ~name:"bidir provable set contains the forward set"
    ~count:25
    (QCheck.make
       ~print:(fun (bench, len) -> Printf.sprintf "%s len=%d" bench len)
       QCheck.Gen.(pair (oneofl Profile.spec_int_names) (int_range 1 3_000)))
    (fun (bench, length) ->
      let bd =
        Hc_analysis.Static.analyze_bidir
          (Generator.generate_sliced ~length (Profile.find_spec_int bench))
      in
      let fwd = bd.Hc_analysis.Static.base in
      Array.iteri
        (fun i p ->
          if p && not bd.Hc_analysis.Static.bidir_provable.(i) then
            QCheck.Test.fail_reportf "uop %d forward-provable only" i;
          if fwd.Hc_analysis.Static.steerable.(i)
             && not bd.Hc_analysis.Static.bidir_steerable.(i)
          then QCheck.Test.fail_reportf "uop %d forward-steerable only" i)
        fwd.Hc_analysis.Static.provable;
      bd.Hc_analysis.Static.bidir_steerable_count
      >= fwd.Hc_analysis.Static.steerable_count)

let prop_monolithic_ignores_helper_knobs =
  (* with the helper disabled, narrow-side knobs must not change results *)
  QCheck.Test.make ~name:"baseline invariant to helper knobs" ~count:20
    (QCheck.make QCheck.Gen.(pair (int_range 4 24) bool))
    (fun (bits, fast) ->
      let trace = trace_of "gcc" in
      let run cfg =
        (Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide
           ~scheme_name:"baseline" trace)
          .Metrics.ticks
      in
      run Config.baseline
      = run
          { Config.baseline with
            Config.narrow_bits = bits; helper_fast_clock = fast })

(* ----- differential fuzz: the known-bits domain vs the evaluator ----- *)

module Absval = Hc_analysis.Absval
module Semantics = Hc_isa.Semantics
module Detector = Hc_isa.Detector
module Opcode = Hc_isa.Opcode

let val32_gen = QCheck.Gen.(map (fun x -> x land 0xFFFF_FFFF) (int_range 0 max_int))

(* A uniform mask leaves about 16 bits unknown, so a carry almost never
   runs through a long known stretch; mix in the masks that make one:
   none, a single bit, a low run, a high run and all 32 bits unknown.
   Values lean the same way, toward all ones (a carry crosses every
   known bit) and small numbers (long known-zero tops). *)
let unknown_mask_gen =
  QCheck.Gen.(
    frequency
      [ (3, val32_gen);
        (1, return 0);
        (1, map (fun i -> 1 lsl i) (int_range 0 31));
        (1, map (fun k -> (1 lsl k) - 1) (int_range 1 31));
        (1, map (fun k -> 0xFFFF_FFFF lxor ((1 lsl k) - 1)) (int_range 1 31));
        (1, return 0xFFFF_FFFF) ])

let value_gen =
  QCheck.Gen.(
    frequency [ (4, val32_gen); (1, return 0xFFFF_FFFF); (1, int_range 0 255) ])

(* one operand: a concrete value plus a mask of bits the abstraction
   forgets; joining the two flips makes exactly those bits unknown while
   keeping the concrete value contained *)
let operand_gen = QCheck.Gen.pair value_gen unknown_mask_gen

let abstract_of (v, m) = Absval.join (Absval.const v) (Absval.const (v lxor m))

let domain_case_gen =
  QCheck.Gen.(
    triple (oneofl Opcode.all) (int_range 2 3) (list_size (return 3) operand_gen))

let print_domain_case (op, arity, ops) =
  Format.asprintf "%s/%d over %a" (Opcode.to_string op) arity
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (v, m) -> Format.fprintf ppf "%x (unknown %x)" v m))
    ops

let prop_transfer_sound =
  (* the soundness induction step: when the abstract inputs contain the
     concrete operands, the abstract output contains the concrete result,
     and provable narrowness implies detector narrowness of the result *)
  QCheck.Test.make ~name:"abstract transfer contains Semantics.eval" ~count:2000
    (QCheck.make ~print:print_domain_case domain_case_gen)
    (fun (op, arity, ops) ->
      let ops = List.filteri (fun i _ -> i < arity) ops in
      let vals = List.map fst ops in
      let abs = List.map abstract_of ops in
      List.iter2
        (fun a v ->
          if not (Absval.contains a v) then
            QCheck.Test.fail_reportf "input abstraction broken")
        abs vals;
      match (Semantics.eval op vals, Absval.transfer op abs) with
      | None, None -> true
      | Some r, Some a ->
        if not (Absval.contains a r) then
          QCheck.Test.fail_reportf "result %x escapes the abstract output" r;
        (not (Absval.is_narrow ~bits:8 a)) || Detector.narrow ~bits:8 r
      | Some _, None | None, Some _ ->
        QCheck.Test.fail_reportf
          "transfer and eval disagree about producing a result")

let prop_const_transfer_exact =
  (* on fully known inputs the domain must collapse to the evaluator *)
  QCheck.Test.make ~name:"abstract transfer exact on constants" ~count:1000
    (QCheck.make
       ~print:(fun (op, vals) ->
         Format.asprintf "%s %a" (Opcode.to_string op)
           (Format.pp_print_list Format.pp_print_int)
           vals)
       QCheck.Gen.(pair (oneofl Opcode.all) (list_size (return 2) val32_gen)))
    (fun (op, vals) ->
      match (Semantics.eval op vals, Absval.transfer op (List.map Absval.const vals)) with
      | Some r, Some a -> Absval.to_const a = Some r
      | None, None -> true
      | _ -> false)

(* ----- exactness: the bit-parallel adder vs the per-bit reference ----- *)

type trit = K0 | K1 | Unk

let bit_at (m : Absval.t) i =
  if (m.Absval.ones lsr i) land 1 = 1 then K1
  else if (m.Absval.zeros lsr i) land 1 = 1 then K0
  else Unk

let trit_options = function K0 -> [ 0 ] | K1 -> [ 1 ] | Unk -> [ 0; 1 ]

(* The reference adder: Absval's former transfer, returning its
   (zeros, ones) masks. Ripple-carry addition with an abstract carry: at
   each bit, enumerate the concrete possibilities of the two operand bits
   and the incoming carry (at most eight) and keep a sum bit or outgoing
   carry only when all possibilities agree. Exact for fully known inputs. *)
let ripple_adc a b carry_in =
  let zeros = ref 0 and ones = ref 0 in
  let carry = ref carry_in in
  for i = 0 to 31 do
    let sum0 = ref false and sum1 = ref false in
    let car0 = ref false and car1 = ref false in
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            List.iter
              (fun c ->
                let s = x + y + c in
                if s land 1 = 0 then sum0 := true else sum1 := true;
                if s >= 2 then car1 := true else car0 := true)
              (trit_options !carry))
          (trit_options (bit_at b i)))
      (trit_options (bit_at a i));
    if not !sum0 then ones := !ones lor (1 lsl i)
    else if not !sum1 then zeros := !zeros lor (1 lsl i);
    carry :=
      (match (!car0, !car1) with
      | true, false -> K0
      | false, true -> K1
      | _ -> Unk)
  done;
  (!zeros, !ones)

(* Why the two adders must agree bit for bit: the known-bits domain is a
   product over bits, so the per-bit enumeration is exact, and the
   tristate-number add is proven optimal; both give the most precise sum. *)
let adders_agree a b =
  let masks (r : Absval.t) = (r.Absval.zeros, r.Absval.ones) in
  masks (Absval.add a b) = ripple_adc a b K0
  && masks (Absval.sub a b) = ripple_adc a (Absval.lognot b) K1

let test_adders_agree_exhaustive () =
  (* every abstract value on the low 4 bits: per bit 0, 1 or unknown *)
  let low =
    List.init 81 (fun code ->
        let ones = ref 0 and unknown = ref 0 and c = ref code in
        for i = 0 to 3 do
          ( match !c mod 3 with
          | 1 -> ones := !ones lor (1 lsl i)
          | 2 -> unknown := !unknown lor (1 lsl i)
          | _ -> () );
          c := !c / 3
        done;
        (!ones, !unknown))
  in
  let hi = 0xFFFF_FFF0 in
  (* upper 28 bits as (ones, unknown): known 0, known 1, unknown, mixed *)
  let uppers = [ (0, 0); (hi, 0); (0, hi); (0x3C0F_00F0, 0xC030_FF00) ] in
  List.iter
    (fun (ha, hau) ->
      List.iter
        (fun (hb, hbu) ->
          List.iter
            (fun (la, lau) ->
              let a = abstract_of (ha lor la, hau lor lau) in
              List.iter
                (fun (lb, lbu) ->
                  let b = abstract_of (hb lor lb, hbu lor lbu) in
                  if not (adders_agree a b) then
                    Alcotest.failf "adders disagree on %a and %a" Absval.pp a
                      Absval.pp b)
                low)
            low)
        uppers)
    uppers

let prop_adders_agree =
  QCheck.Test.make ~name:"bit-parallel add/sub equal the ripple reference"
    ~count:100_000
    (QCheck.make
       ~print:(fun ((v, m), (w, n)) ->
         Printf.sprintf "%x (unknown %x), %x (unknown %x)" v m w n)
       QCheck.Gen.(pair operand_gen operand_gen))
    (fun (x, y) -> adders_agree (abstract_of x) (abstract_of y))

(* ----- differential fuzz: backward live-bits vs the evaluator ----- *)

module Livebits = Hc_analysis.Livebits
module Static = Hc_analysis.Static

let backward_case_gen =
  QCheck.Gen.(
    let* op = oneofl Opcode.all in
    let* vals = list_size (return 2) val32_gen in
    let* live = val32_gen in
    let* flips = list_size (return 2) val32_gen in
    let* known_amount = bool in
    return (op, vals, live, flips, known_amount))

let print_backward_case (op, vals, live, flips, known_amount) =
  Format.asprintf "%s %a live=%x flips=%a known_amount=%b"
    (Opcode.to_string op)
    (Format.pp_print_list Format.pp_print_int)
    vals live
    (Format.pp_print_list Format.pp_print_int)
    flips known_amount

let prop_backward_transfer_sound =
  (* the dual of [prop_transfer_sound]: flipping source bits OUTSIDE the
     per-source demand masks must leave every result bit INSIDE the live
     mask unchanged under the concrete evaluator — the contract the E111
     mutation check and the bidirectional join both stand on *)
  QCheck.Test.make ~name:"backward transfer demands contain the live bits"
    ~count:2000
    (QCheck.make ~print:print_backward_case backward_case_gen)
    (fun (op, vals, live, flips, known_amount) ->
      (* an amount fact is only sound when it matches the concrete
         amount operand, exactly as the forward pass proves it *)
      let amount =
        match (op, vals, known_amount) with
        | (Opcode.Shl | Opcode.Shr), _ :: amt :: _, true -> amt land 31
        | _ -> -1
      in
      let demands =
        Livebits.backward_transfer op ~nsrcs:(List.length vals) ~amount ~live
      in
      let flipped =
        List.map2
          (fun v (f, d) -> (v lxor (f land lnot d)) land 0xFFFF_FFFF)
          vals
          (List.combine flips demands)
      in
      match (Semantics.eval op vals, Semantics.eval op flipped) with
      | Some r, Some r' ->
        if (r lxor r') land live <> 0 then
          QCheck.Test.fail_reportf
            "dead-source flip reached live result bits: %x vs %x" r r';
        true
      | None, None -> true
      | Some _, None | None, Some _ ->
        QCheck.Test.fail_reportf
          "eval disagrees about producing a result across a dead flip")

let prop_dead_bits_unobservable =
  (* end-to-end: on whole generated traces, every bit the backward pass
     claims dead really is — flipping it and replaying changes nothing
     any full-width consumer or the trace exit observes (lint E111) *)
  QCheck.Test.make ~name:"claimed-dead bits are unobservable downstream"
    ~count:20
    (QCheck.make
       ~print:(fun (bench, len) -> Printf.sprintf "%s len=%d" bench len)
       QCheck.Gen.(pair bench_gen (int_range 200 800)))
    (fun (bench, len) ->
      let tr = Generator.generate_sliced ~length:len (Profile.find_spec_int bench) in
      let bd = Static.analyze_bidir tr in
      match Livebits.soundness_violations bd.Static.livebits tr with
      | [] -> true
      | v :: _ ->
        QCheck.Test.fail_reportf
          "dead bits %x of uop %d observable at %d" v.Livebits.flipped
          v.Livebits.index v.Livebits.consumer_index)

let suite =
  ( "fuzz",
    [
      QCheck_alcotest.to_alcotest prop_simulator_total;
      QCheck_alcotest.to_alcotest prop_counts_invariants;
      QCheck_alcotest.to_alcotest prop_skip_equals_stepping;
      QCheck_alcotest.to_alcotest prop_poison_changes_nothing;
      QCheck_alcotest.to_alcotest prop_pool_growth_changes_nothing;
      QCheck_alcotest.to_alcotest prop_ready_lists_match_walk;
      QCheck_alcotest.to_alcotest prop_tracing_bit_identical;
      QCheck_alcotest.to_alcotest prop_bidir_contains_forward;
      QCheck_alcotest.to_alcotest prop_monolithic_ignores_helper_knobs;
      QCheck_alcotest.to_alcotest prop_transfer_sound;
      QCheck_alcotest.to_alcotest prop_const_transfer_exact;
      Alcotest.test_case "bit-parallel add/sub equal the ripple reference on 4 bits"
        `Quick test_adders_agree_exhaustive;
      QCheck_alcotest.to_alcotest prop_adders_agree;
      QCheck_alcotest.to_alcotest prop_backward_transfer_sound;
      QCheck_alcotest.to_alcotest prop_dead_bits_unobservable;
    ] )
