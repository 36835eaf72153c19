(* The benchmark harness.

   Three parts, all keyed to the paper's evaluation artifacts:

   1. Regeneration - every table and figure of the paper is recomputed at
      full size and printed with paper-vs-measured headline comparisons
      (the same tables EXPERIMENTS.md quotes). With --json the wall-clock
      is measured twice - sequentially and on the domain pool - so the
      parallel engine's speedup is recorded alongside.

   2. Micro-benchmarks - one Bechamel [Test.make] per table/figure timing
      the computational kernel behind that artifact (trace analysis for the
      characterization figures, a scaled-down simulation for the
      performance figures), so regressions in simulator speed show up per
      experiment. Every fig*:sim-* kernel runs over the SAME memoized
      2k-uop gcc trace, so the kernels measure simulation, not generation.

   3. --json <path> - machine-readable results (kernel name -> ns/run plus
      the regenerate() wall-clocks and the marginal per-uop allocation
      measurement) for tracking the perf trajectory across PRs
      (BENCH_<n>.json at the repo root).

   Flags: --micro (kernels only), --tables (regeneration only),
   --json <path>, --jobs <n> (domain-pool size; HC_JOBS works too). The
   per-uop allocation gates are tier-1 tests (test/test_alloc.ml). *)

module Experiments = Hc_core.Experiments
module Runs = Hc_core.Runs
module Domain_pool = Hc_core.Domain_pool
module Meta = Hc_core.Meta
module Artifact_cache = Hc_core.Artifact_cache
module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Analysis = Hc_trace.Analysis
module Workloads = Hc_trace.Workloads
module Trace_io = Hc_trace.Trace_io
module Codec = Hc_trace.Codec
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Accounting = Hc_sim.Accounting
module Static = Hc_analysis.Static
module Width_predictor = Hc_predictors.Width_predictor
module Uop_soa = Hc_isa.Uop_soa
module Registry = Hc_obs.Registry
module Span = Hc_obs.Span

(* ----- part 1: regenerate every table and figure ----- *)

let regenerate () =
  print_endline "==================================================================";
  print_endline " Reproduction of every table and figure (paper vs measured)";
  print_endline "==================================================================";
  let runs = Runs.create ~length:30_000 () in
  List.iter
    (fun (e : Experiments.t) ->
      Printf.printf "\n=== %s: %s ===\npaper: %s\n\n" e.Experiments.id
        e.Experiments.title e.Experiments.paper_claim;
      let text, headlines = e.Experiments.run runs in
      print_endline text;
      List.iter
        (fun (h : Experiments.headline) ->
          Printf.printf "  %-55s paper %8.2f | measured %8.2f\n"
            h.Experiments.label h.Experiments.paper h.Experiments.measured)
        headlines)
    Experiments.all

(* ----- part 2: bechamel micro-benchmarks ----- *)

let bench_trace =
  lazy (Generator.generate_sliced ~length:5_000 (Profile.find_spec_int "gcc"))

(* codec kernel inputs, prepared once: the binary blob in memory, the
   same trace as a text file on disk, and a one-entry artifact cache the
   warm-reload kernel hits every iteration. The decode-vs-text-load pair
   is the codec's headline comparison. *)
let bench_encoded = lazy (Codec.encode (Lazy.force bench_trace))

let bench_text_file =
  lazy
    (let path = Filename.temp_file "hc_bench_trace" ".trace" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     Trace_io.save (Lazy.force bench_trace) path;
     path)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let bench_cache =
  lazy
    (let root = Filename.temp_file "hc_bench_cache" "" in
     Sys.remove root;
     at_exit (fun () -> rm_rf root);
     let c = Artifact_cache.create ~root () in
     let profile = Profile.find_spec_int "gcc" in
     Artifact_cache.store_trace c ~profile ~length:5_000
       (Lazy.force bench_trace);
     c)

(* one memoized trace shared by every fig*:sim-* kernel: the kernels time
   the simulator, not the generator *)
let sim_trace =
  lazy (Generator.generate_sliced ~length:2_000 (Profile.find_spec_int "gcc"))

let sim_kernel scheme () =
  let cfg = Config.with_scheme Config.default (Config.find_scheme scheme) in
  ignore
    (Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:scheme
       (Lazy.force sim_trace))

let predictor_kernel () =
  let soa = Hc_trace.Trace.soa (Lazy.force bench_trace) in
  let pred = Width_predictor.create () in
  for i = 0 to Uop_soa.length soa - 1 do
    let pc = Uop_soa.pc soa i in
    ignore (Width_predictor.predict pred pc);
    Width_predictor.update pred pc
      ~narrow:(Hc_isa.Width.is_narrow (Uop_soa.result soa i))
  done

(* Observability overhead kernels. Ambient observability is OFF for the
   whole bench process (no --obs here), so the *-off kernels measure
   exactly what every instrumentation point costs on the untraced hot
   path: one atomic load and a match on None. The *-on kernels use a
   local registry (never the ambient one — enabling that mid-bench would
   contaminate the sim kernels) to price the enabled lock-free path. *)
let obs_local_counter =
  lazy
    (let r = Registry.create () in
     Registry.counter r ~help:"bench overhead kernel" "bench_ops_total")

let obs_local_hist =
  lazy
    (let r = Registry.create () in
     Registry.histogram r ~help:"bench overhead kernel" "bench_obs_ns")

let obs_scrape_registry =
  lazy
    (let r = Registry.create () in
     Registry.add (Registry.counter r "bench_a_total") 7;
     Registry.gauge_set (Registry.gauge r "bench_b") 3;
     for i = 1 to 100 do
       Registry.observe (Registry.histogram r "bench_c") i
     done;
     r)

let bench_uop_records = lazy (Hc_trace.Trace.uops (Lazy.force bench_trace))

(* Sub-microsecond kernels (tab1 and the obs:* overhead guards) get
   their own measurement path, for two reasons. First, shared-host
   scheduling jitter: a single batch has flagged them as regressions
   that vanish on re-run (EXPERIMENTS.md, PR 5) — so take the median of
   independent batches. Second, bechamel's per-sample bookkeeping
   allocates on the major heap, and OCaml prices every major allocation
   with a marking slice proportional to the live heap; once the tables
   pass has built its memoized traces (~3M live words), that overhead
   swamps the OLS estimate of a sub-microsecond kernel (tab1 read ~1 µs
   where a plain loop under the same heap times it at ~51 ns) — so time
   these with a calibrated direct loop that has no per-sample machinery
   at all. *)
let fast_kernels : (string * (unit -> unit)) list =
  [
    ( "tab1:machine-instantiation",
      fun () ->
        match Config.validate Config.default with
        | Ok () -> ()
        | Error msg -> failwith msg );
    ( "obs:counter-guard-off-x1000",
      fun () ->
        for _ = 1 to 1000 do
          Registry.with_ambient (fun r ->
              Registry.inc (Registry.counter r "bench_never_total"))
        done );
    ( "obs:span-guard-off-x1000",
      fun () ->
        for _ = 1 to 1000 do
          Span.with_span "bench-noop" ignore
        done );
    ( "obs:counter-add-x1000",
      fun () ->
        let c = Lazy.force obs_local_counter in
        for _ = 1 to 1000 do
          Registry.inc c
        done );
    ( "obs:histogram-observe-x1000",
      fun () ->
        let h = Lazy.force obs_local_hist in
        for i = 1 to 1000 do
          Registry.observe h i
        done );
    ( "obs:scrape",
      fun () -> ignore (Registry.scrape (Lazy.force obs_scrape_registry)) );
  ]

let tests =
  let open Bechamel in
  let stage name f = Test.make ~name (Staged.stage f) in
  [
    stage "fig1:narrow-dependence-scan" (fun () ->
        ignore (Analysis.narrow_dependence_pct (Lazy.force bench_trace)));
    stage "opmix:operand-width-scan" (fun () ->
        ignore (Analysis.operand_mix (Lazy.force bench_trace)));
    stage "fig5:width-predictor-throughput" predictor_kernel;
    stage "fig6:sim-8_8_8" (sim_kernel "8_8_8");
    stage "fig7:sim-baseline" (sim_kernel "baseline");
    stage "fig8:sim-BR" (sim_kernel "+BR");
    stage "fig9:sim-LR" (sim_kernel "+LR");
    stage "fig11:carry-locality-scan" (fun () ->
        ignore (Analysis.carry_not_propagated_pct (Lazy.force bench_trace) ~arith:true);
        ignore (Analysis.carry_not_propagated_pct (Lazy.force bench_trace) ~arith:false));
    stage "fig12:sim-CR" (sim_kernel "+CR");
    stage "fig13:distance-scan" (fun () ->
        ignore (Analysis.mean_distance (Lazy.force bench_trace)));
    stage "cp:sim-CP" (sim_kernel "+CP");
    stage "ir:sim-IR" (sim_kernel "+IR");
    stage "analysis:bidir" (fun () ->
        ignore (Static.analyze_bidir (Lazy.force sim_trace)));
    stage "tab2:suite-derivation" (fun () -> ignore (Workloads.suite ()));
    stage "codec:encode" (fun () ->
        ignore (Codec.encode (Lazy.force bench_trace)));
    stage "codec:decode" (fun () ->
        ignore
          (Codec.decode
             ~profile:(Profile.find_spec_int "gcc")
             (Lazy.force bench_encoded)));
    stage "codec:text-load" (fun () ->
        ignore (Trace_io.load (Lazy.force bench_text_file)));
    (* SoA hot-path pair: the record->column packing cost, and the
       codec's zero-copy path that materializes columns straight from
       the varint stream (no uop records are ever built — compare with
       codec:text-load for what the record path costs) *)
    stage "soa:of-uops" (fun () ->
        ignore (Hc_isa.Uop_soa.of_uops (Lazy.force bench_uop_records)));
    stage "soa:decode-zero-copy" (fun () ->
        ignore
          (Hc_trace.Trace.soa
             (Codec.decode
                ~profile:(Profile.find_spec_int "gcc")
                (Lazy.force bench_encoded))));
    (* accounting overhead guard pair: same trace, same scheme, with and
       without the cycle-accounting accumulator. Off must price only the
       field-test guard (compare against acct:sim-on and ir:sim-IR). *)
    stage "acct:sim-off" (sim_kernel "+IR");
    stage "acct:sim-on" (fun () ->
        let cfg = Config.with_scheme Config.default (Config.find_scheme "+IR") in
        let a =
          Accounting.create ~issue_width:cfg.Config.issue_width
            ~commit_width:cfg.Config.commit_width ()
        in
        ignore
          (Pipeline.run ~accounting:a ~cfg ~decide:Hc_steering.Policy.decide
             ~scheme_name:"+IR" (Lazy.force sim_trace)));
    stage "cache:warm-reload" (fun () ->
        match
          Artifact_cache.find_trace (Lazy.force bench_cache)
            ~profile:(Profile.find_spec_int "gcc") ~length:5_000
        with
        | Some _ -> ()
        | None -> failwith "cache:warm-reload: entry vanished (expected hit)");
    stage "fig14:one-app-end-to-end" (fun () ->
        let p = List.hd (Workloads.category_apps Profile.Multimedia) in
        let tr = Generator.generate_sliced ~length:1_000 p in
        let base =
          Pipeline.run ~cfg:Config.baseline ~decide:Hc_steering.Policy.decide
            ~scheme_name:"baseline" tr
        in
        let ir =
          Pipeline.run
            ~cfg:(Config.with_scheme Config.default (Config.find_scheme "+IR"))
            ~decide:Hc_steering.Policy.decide ~scheme_name:"+IR" tr
        in
        ignore (Hc_sim.Metrics.speedup_pct ~baseline:base ir));
  ]

(* One bechamel pass over [tests]; returns (full kernel name, ns/run). *)
let measure_tests tests =
  let open Bechamel in
  let open Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let test = Test.make_grouped ~name:"helper_cluster" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  Hashtbl.fold
    (fun name ols acc ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> (name, ns) :: acc
      | Some _ | None -> acc)
    clock []

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let fast_batches = 5

let fast_warmup_iters = 200

(* One direct-loop measurement: grow the iteration count until a run
   fills a ~20 ms window (clock granularity and loop overhead both
   vanish at that scale), then time one more window at that count. *)
let time_fast fn =
  let window_s = 0.02 in
  let rec calibrate n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      fn ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < window_s && n < 100_000_000 then calibrate (n * 4) else n
  in
  let n = calibrate 100 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    fn ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n *. 1e9

let run_bechamel () =
  print_endline "\n==================================================================";
  print_endline " Micro-benchmarks (Bechamel, one per table/figure)";
  print_endline "==================================================================";
  (* fast kernels: warm up, then the median of independent direct-loop
     batches (see the fast_kernels comment for why not bechamel) *)
  List.iter
    (fun (_, fn) ->
      for _ = 1 to fast_warmup_iters do
        fn ()
      done)
    fast_kernels;
  let batches =
    List.init fast_batches (fun _ ->
        List.map (fun (name, fn) -> (name, time_fast fn)) fast_kernels)
  in
  let fast =
    List.map
      (fun (name, _) ->
        let samples = List.map (fun b -> List.assoc name b) batches in
        ("helper_cluster " ^ name, median samples))
      fast_kernels
  in
  let slow = measure_tests tests in
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a b) (slow @ fast)
  in
  List.iter
    (fun (name, ns) -> Printf.printf "%-45s %12.1f ns/run\n" name ns)
    rows;
  rows

(* ----- part 2b: per-uop allocation measurement ----- *)

(* Marginal minor-heap allocation of a warm untraced 8_8_8 run, in words
   per uop, for the JSON record: two runs over traces of different
   lengths cancel every per-run fixed cost. The zero-allocation gates
   themselves are tier-1 tests (test/test_alloc.ml). *)
let alloc_trace_long =
  lazy (Generator.generate_sliced ~length:4_000 (Profile.find_spec_int "gcc"))

type alloc_measure = {
  a_uops_short : int;
  a_words_short : float;
  a_uops_long : int;
  a_words_long : float;
  a_words_per_uop : float;
}

let run_888 tr =
  let cfg = Config.with_scheme Config.default (Config.find_scheme "8_8_8") in
  ignore
    (Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:"8_8_8" tr)

let measure_alloc () =
  let short = Lazy.force sim_trace and long = Lazy.force alloc_trace_long in
  (* one untimed warm-up run each sizes the per-domain scratch arenas *)
  run_888 short;
  run_888 long;
  let words tr =
    let w0 = Gc.minor_words () in
    run_888 tr;
    Gc.minor_words () -. w0
  in
  let words_short = words short in
  let words_long = words long in
  let uops_short = Hc_trace.Trace.length short
  and uops_long = Hc_trace.Trace.length long in
  {
    a_uops_short = uops_short;
    a_words_short = words_short;
    a_uops_long = uops_long;
    a_words_long = words_long;
    a_words_per_uop =
      (words_long -. words_short) /. float_of_int (uops_long - uops_short);
  }

(* ----- part 3: machine-readable results ----- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let timed_regenerate ~jobs =
  Domain_pool.set_jobs jobs;
  let t0 = Unix.gettimeofday () in
  regenerate ();
  Unix.gettimeofday () -. t0

(* Cold-vs-warm artifact cache, measured end to end on the full SPEC
   sweep (the 8_8_8 scheme x 12 profiles x 30k uops) against a fresh
   temp root: the cold pass generates, simulates and publishes, a
   second Runs instance over the same root then satisfies every cell
   from its finished-metrics entry without touching a trace. The warm
   counters must show 12 run hits / 0 trace activity — anything else
   is a caching bug worth failing the bench run over. *)
let timed_cache ~jobs =
  Domain_pool.set_jobs jobs;
  let root = Filename.temp_file "hc_bench_cachecw" "" in
  Sys.remove root;
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let sweep = List.map (fun p -> ("8_8_8", p)) Runs.spec_profiles in
      let cold_cache = Artifact_cache.create ~root () in
      let cold = Runs.create ~length:30_000 ~cache:cold_cache () in
      let t0 = Unix.gettimeofday () in
      Runs.ensure cold sweep;
      let cold_s = Unix.gettimeofday () -. t0 in
      let warm_cache = Artifact_cache.create ~root () in
      let warm = Runs.create ~length:30_000 ~cache:warm_cache () in
      let t0 = Unix.gettimeofday () in
      Runs.ensure warm sweep;
      let warm_s = Unix.gettimeofday () -. t0 in
      let counts = Artifact_cache.counts warm_cache in
      if counts.Artifact_cache.run_hits <> List.length sweep then
        failwith "bench: warm cache pass missed (expected all run hits)";
      if counts.Artifact_cache.trace_hits + counts.Artifact_cache.trace_misses
         <> 0
      then failwith "bench: warm cache pass touched traces (expected none)";
      (cold_s, warm_s, Artifact_cache.counts cold_cache, counts))

(* A short observed sweep with the ambient registry and span collector
   on — run after the kernels, so enabling observability can never
   contaminate their timings: 8_8_8 over the 12 seed profiles at 2k
   uops, scraped into the snapshot. This regression-tracks the counter
   surface itself (names, labels, totals) across PRs. *)
let registry_sweep_length = 2_000

let registry_sweep () =
  let r = Registry.enable () in
  Registry.reset r;
  ignore (Span.enable ());
  let runs = Runs.create ~length:registry_sweep_length () in
  Runs.ensure runs (List.map (fun p -> ("8_8_8", p)) Runs.spec_profiles);
  let samples = Registry.scrape r in
  let span_count =
    match Span.ambient () with Some c -> Span.count c | None -> 0
  in
  Registry.disable ();
  Span.disable ();
  (samples, span_count)

let registry_rows samples =
  List.concat_map
    (fun (s : Registry.sample) ->
      let key =
        s.Registry.s_name
        ^
        match s.Registry.s_labels with
        | [] -> ""
        | ls ->
          "{"
          ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
          ^ "}"
      in
      match s.Registry.s_value with
      | Registry.Counter_v v | Registry.Gauge_v v -> [ (key, v) ]
      | Registry.Histogram_v hv ->
        [ (key ^ "_count", hv.Registry.h_count);
          (key ^ "_sum", hv.Registry.h_sum) ])
    samples

let write_json ~path ~kernels ~alloc ~regen ~cache ~registry =
  let pool = Domain_pool.get () in
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": 5,\n";
  (* run metadata: git SHA, host cores, jobs, seed fingerprint, wall
     clock — so a BENCH_*.json snapshot is self-describing *)
  p "  %s,\n"
    (Meta.to_json_fields (Meta.capture ~jobs:(Domain_pool.jobs pool) ()));
  (* domain-pool profiling: per-worker task counts and busy/wait wall
     time for the pool the parallel regeneration pass ran on *)
  p "  \"pool\": {\n";
  p "    \"jobs\": %d,\n" (Domain_pool.jobs pool);
  p "    \"max_queue_depth\": %d,\n" (Domain_pool.max_queue_depth pool);
  p "    \"workers\": [\n";
  let stats = Domain_pool.stats pool in
  Array.iteri
    (fun i (s : Domain_pool.worker_stats) ->
      p "      {\"tasks\": %d, \"busy_s\": %.4f, \"wait_s\": %.4f}%s\n"
        s.Domain_pool.w_tasks s.Domain_pool.w_busy_s s.Domain_pool.w_wait_s
        (if i = Array.length stats - 1 then "" else ","))
    stats;
  p "    ]\n";
  p "  },\n";
  p "  \"kernels_ns_per_run\": {\n";
  let n = List.length kernels in
  List.iteri
    (fun i (name, ns) ->
      p "    \"%s\": %.1f%s\n" (json_escape name) ns
        (if i = n - 1 then "" else ","))
    kernels;
  p "  }";
  ( match alloc with
  | None -> ()
  | Some m ->
    p ",\n  \"alloc\": {\n";
    p "    \"uops_short\": %d,\n" m.a_uops_short;
    p "    \"minor_words_short\": %.0f,\n" m.a_words_short;
    p "    \"uops_long\": %d,\n" m.a_uops_long;
    p "    \"minor_words_long\": %.0f,\n" m.a_words_long;
    p "    \"minor_words_per_uop\": %.4f\n" m.a_words_per_uop;
    p "  }" );
  ( match regen with
  | None -> ()
  | Some (seq_s, par_jobs, par_s) ->
    p ",\n  \"regenerate\": {\n";
    p "    \"length\": 30000,\n";
    p "    \"sequential_wall_s\": %.3f,\n" seq_s;
    p "    \"parallel_jobs\": %d,\n" par_jobs;
    p "    \"parallel_wall_s\": %.3f,\n" par_s;
    p "    \"speedup\": %.3f\n" (if par_s > 0. then seq_s /. par_s else 0.);
    p "  }" );
  ( match cache with
  | None -> ()
  | Some (cold_s, warm_s, cold_c, warm_c) ->
    p ",\n  \"cache\": {\n";
    p "    \"length\": 30000,\n";
    p "    \"scheme\": \"8_8_8\",\n";
    p "    \"profiles\": %d,\n" (List.length Runs.spec_profiles);
    p "    \"cold_wall_s\": %.3f,\n" cold_s;
    p "    \"warm_wall_s\": %.3f,\n" warm_s;
    p "    \"speedup\": %.1f,\n" (if warm_s > 0. then cold_s /. warm_s else 0.);
    p "    \"cold_run_hits\": %d,\n" cold_c.Artifact_cache.run_hits;
    p "    \"cold_run_misses\": %d,\n" cold_c.Artifact_cache.run_misses;
    p "    \"cold_trace_misses\": %d,\n" cold_c.Artifact_cache.trace_misses;
    p "    \"warm_run_hits\": %d,\n" warm_c.Artifact_cache.run_hits;
    p "    \"warm_run_misses\": %d,\n" warm_c.Artifact_cache.run_misses;
    p "    \"warm_trace_hits\": %d\n" warm_c.Artifact_cache.trace_hits;
    p "  }" );
  ( match registry with
  | None -> ()
  | Some (samples, span_count) ->
    p ",\n  \"registry\": {\n";
    p "    \"length\": %d,\n" registry_sweep_length;
    p "    \"scheme\": \"8_8_8\",\n";
    p "    \"profiles\": %d,\n" (List.length Runs.spec_profiles);
    p "    \"spans_recorded\": %d,\n" span_count;
    p "    \"counters\": {\n";
    let rows = registry_rows samples in
    let n = List.length rows in
    List.iteri
      (fun i (k, v) ->
        p "      \"%s\": %d%s\n" (json_escape k) v
          (if i = n - 1 then "" else ","))
      rows;
    p "    }\n";
    p "  }" );
  p "\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" path

let () =
  let argv = Array.to_list Sys.argv in
  let only_micro = List.mem "--micro" argv in
  let only_tables = List.mem "--tables" argv in
  let rec find_opt_value flag = function
    | [] -> None
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> find_opt_value flag rest
  in
  ( match find_opt_value "--jobs" argv with
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n > 0 -> Domain_pool.set_jobs n
    | Some _ | None ->
      prerr_endline "--jobs expects a positive integer";
      exit 1 )
  | None -> () );
  match find_opt_value "--json" argv with
  | Some path ->
    let regen =
      if only_micro then None
      else begin
        (* sequential first, then the domain-pool fan-out: same work, same
           results (bit-identical, see test_parallel), different wall.
           The parallel pass uses the host's default pool size (HC_JOBS or
           the recommended domain count) - never oversubscribe: domains
           beyond the core count make the allocation-heavy simulator
           slower, not faster *)
        let seq_s = timed_regenerate ~jobs:1 in
        let par_jobs = Domain_pool.default_jobs () in
        let par_s = timed_regenerate ~jobs:par_jobs in
        Some (seq_s, par_jobs, par_s)
      end
    in
    let cache =
      if only_micro then None
      else Some (timed_cache ~jobs:(Domain_pool.default_jobs ()))
    in
    let kernels = if only_tables then [] else run_bechamel () in
    let alloc = if only_tables then None else Some (measure_alloc ()) in
    (* observed sweep last: the ambient registry only turns on after
       every timed pass has finished *)
    let registry = Some (registry_sweep ()) in
    write_json ~path ~kernels ~alloc ~regen ~cache ~registry
  | None ->
    if not only_micro then regenerate ();
    if not only_tables then ignore (run_bechamel ())
