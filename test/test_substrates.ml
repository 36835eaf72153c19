(* Tests for the structural substrates: set-associative caches, the gshare
   branch predictor, the trace cache, physical register files and the CR
   tag counters — plus their integration into the pipeline. *)

module Cache = Hc_sim.Cache
module Branch_predictor = Hc_sim.Branch_predictor
module Trace_cache = Hc_sim.Trace_cache
module Regfile = Hc_sim.Regfile
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics

(* ----- caches ----- *)

let test_cache_geometry () =
  let c = Cache.create ~line_bytes:64 ~size_bytes:(32 * 1024) ~ways:8 () in
  Alcotest.(check int) "sets" 64 (Cache.sets c);
  Alcotest.(check int) "ways" 8 (Cache.ways c);
  Alcotest.(check int) "line" 64 (Cache.line_bytes c);
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Cache.create: sizes must be powers of two") (fun () ->
      ignore (Cache.create ~size_bytes:3000 ~ways:8 ()));
  Alcotest.check_raises "too associative"
    (Invalid_argument "Cache.create: fewer lines than ways") (fun () ->
      ignore (Cache.create ~line_bytes:64 ~size_bytes:128 ~ways:8 ()))

let test_cache_hit_miss () =
  let c = Cache.create ~line_bytes:64 ~size_bytes:1024 ~ways:2 () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0x1000);
  Alcotest.(check bool) "hit after fill" true (Cache.access c 0x1000);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x103F);
  Alcotest.(check bool) "next line misses" false (Cache.access c 0x1040);
  Alcotest.(check bool) "probe does not allocate" false (Cache.probe c 0x9000);
  Alcotest.(check bool) "still absent" false (Cache.probe c 0x9000);
  let hits, misses = Cache.stats c in
  Alcotest.(check int) "hits counted" 2 hits;
  Alcotest.(check int) "misses counted" 2 misses

let test_cache_lru () =
  (* 2-way: fill both ways of one set, touch the first, add a third line —
     the second must be the victim *)
  let c = Cache.create ~line_bytes:64 ~size_bytes:1024 ~ways:2 () in
  let sets = Cache.sets c in
  let stride = 64 * sets in
  let a = 0x10000 and b = 0x10000 + stride and d = 0x10000 + (2 * stride) in
  ignore (Cache.access c a);
  ignore (Cache.access c b);
  ignore (Cache.access c a);
  ignore (Cache.access c d);
  Alcotest.(check bool) "a survives (recently used)" true (Cache.probe c a);
  Alcotest.(check bool) "b evicted (LRU)" false (Cache.probe c b);
  Cache.invalidate_all c;
  Alcotest.(check bool) "invalidate clears" false (Cache.probe c a)

let test_hierarchy_latencies () =
  let h = Cache.Hierarchy.create () in
  let lat = Cache.Hierarchy.latency h ~latencies:(3, 13, 450) in
  Alcotest.(check int) "cold access pays memory" 450 (lat 0x4_0000);
  Alcotest.(check int) "second access hits DL0" 3 (lat 0x4_0000);
  (* evict from DL0 only: a burst of conflicting lines *)
  let sets = Cache.sets (Cache.dl0 ()) in
  for i = 1 to 16 do
    ignore (lat (0x4_0000 + (i * 64 * sets)))
  done;
  Alcotest.(check int) "DL0 victim still hits UL1" 13 (lat 0x4_0000)

(* ----- gshare ----- *)

let test_gshare_learns_bias () =
  let g = Branch_predictor.create () in
  let wrong = ref 0 in
  for _ = 1 to 200 do
    if Branch_predictor.update g 0x400100 ~taken:true then incr wrong
  done;
  (* warm-up misses: each of the ~12 distinct history values maps to its
     own counter, so convergence takes a few tens of branches *)
  Alcotest.(check bool)
    (Printf.sprintf "always-taken learned (%d wrong)" !wrong)
    true (!wrong <= 20);
  Alcotest.(check bool) "accuracy high" true (Branch_predictor.accuracy g > 0.9)

let test_gshare_learns_pattern () =
  (* a period-2 pattern is captured through the history register *)
  let g = Branch_predictor.create () in
  let wrong = ref 0 in
  for i = 1 to 400 do
    let taken = i mod 2 = 0 in
    if Branch_predictor.update g 0x400200 ~taken && i > 100 then incr wrong
  done;
  Alcotest.(check bool)
    (Printf.sprintf "alternating pattern learned (%d late misses)" !wrong)
    true (!wrong <= 5)

let test_gshare_validation () =
  Alcotest.check_raises "bits"
    (Invalid_argument "Branch_predictor.create: bits out of [1,24]") (fun () ->
      ignore (Branch_predictor.create ~history_bits:0 ()))

(* ----- trace cache ----- *)

let test_trace_cache () =
  let tc = Trace_cache.create ~uop_capacity:256 ~ways:2 ~line_uops:4 () in
  Alcotest.(check bool) "cold miss" false (Trace_cache.lookup tc 0x400000);
  Alcotest.(check bool) "hit after build" true (Trace_cache.lookup tc 0x400000);
  Alcotest.(check bool) "same line" true (Trace_cache.lookup tc 0x400004);
  let hits, misses = Trace_cache.stats tc in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 1 misses;
  Alcotest.(check bool) "rate" true (Trace_cache.hit_rate tc > 0.6)

(* ----- register files and CR tags ----- *)

let test_regfile () =
  let rf = Regfile.create ~wide_regs:2 ~narrow_regs:1 () in
  Alcotest.(check int) "capacity" 2 (Regfile.capacity rf Config.Wide);
  Alcotest.(check bool) "alloc 1" true (Regfile.allocate rf Config.Wide);
  Alcotest.(check bool) "alloc 2" true (Regfile.allocate rf Config.Wide);
  Alcotest.(check bool) "exhausted" false (Regfile.allocate rf Config.Wide);
  Alcotest.(check int) "in use" 2 (Regfile.in_use rf Config.Wide);
  Regfile.release rf Config.Wide;
  Alcotest.(check bool) "usable again" true (Regfile.allocate rf Config.Wide);
  Alcotest.(check int) "narrow independent" 1 (Regfile.free_count rf Config.Narrow);
  Regfile.release rf Config.Wide;
  Regfile.release rf Config.Wide;
  Alcotest.check_raises "double release"
    (Invalid_argument "Regfile.release: pool already full") (fun () ->
      Regfile.release rf Config.Wide)

let test_cr_tags () =
  let tags = Regfile.Tags.create ~wide_regs:8 () in
  Alcotest.(check bool) "fresh register deallocatable once committed" true
    (Regfile.Tags.can_deallocate tags 3 ~renamer_committed:true);
  Regfile.Tags.link tags 3;
  Regfile.Tags.link tags 3;
  Alcotest.(check int) "two links" 2 (Regfile.Tags.links tags 3);
  Alcotest.(check bool) "linked register pinned" false
    (Regfile.Tags.can_deallocate tags 3 ~renamer_committed:true);
  Regfile.Tags.unlink tags 3;
  Regfile.Tags.unlink tags 3;
  Alcotest.(check bool) "free after unlinks, but only when committed" false
    (Regfile.Tags.can_deallocate tags 3 ~renamer_committed:false);
  Alcotest.(check bool) "free when committed too" true
    (Regfile.Tags.can_deallocate tags 3 ~renamer_committed:true);
  Alcotest.check_raises "underflow"
    (Invalid_argument "Regfile.Tags.unlink: counter already zero") (fun () ->
      Regfile.Tags.unlink tags 3)

(* ----- pipeline integration ----- *)

let trace =
  lazy
    (Hc_trace.Generator.generate_sliced ~length:4_000
       (Hc_trace.Profile.find_spec_int "gcc"))

let run cfg =
  Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:"+CR"
    (Lazy.force trace)

let full_cr = Config.with_scheme Config.default (Config.find_scheme "+CR")

let test_modeled_memory_completes () =
  let m = run { full_cr with Config.memory_model = Config.Mem_cache_sim } in
  Alcotest.(check int) "commits all" 4_000 m.Metrics.committed;
  (* our pointer walks are cache-friendly: a modeled hierarchy should not
     be slower than the profile's pessimistic flags *)
  Alcotest.(check bool) "ipc sane" true (Metrics.ipc m > 0.2)

let test_gshare_model_completes () =
  let m = run { full_cr with Config.branch_model = Config.Br_gshare } in
  Alcotest.(check int) "commits all" 4_000 m.Metrics.committed

let test_trace_cache_model_completes () =
  let m = run { full_cr with Config.frontend_model = Config.Fe_trace_cache } in
  Alcotest.(check int) "commits all" 4_000 m.Metrics.committed;
  Alcotest.(check bool) "some tc misses recorded" true
    (m.Metrics.counts.(Hc_obs.Counts.tc_miss) > 0);
  (* a realistic frontend can only slow things down *)
  let ideal = run full_cr in
  Alcotest.(check bool) "not faster than ideal frontend" true
    (m.Metrics.ticks >= ideal.Metrics.ticks)

let test_small_regfile_pressure () =
  let tiny =
    run { full_cr with Config.wide_regs = 12; narrow_regs = 12 }
  in
  let roomy = run full_cr in
  Alcotest.(check int) "still commits all" 4_000 tiny.Metrics.committed;
  Alcotest.(check bool)
    (Printf.sprintf "rename pressure costs cycles (%d vs %d ticks)"
       tiny.Metrics.ticks roomy.Metrics.ticks)
    true
    (tiny.Metrics.ticks > roomy.Metrics.ticks)

let test_all_substrates_together () =
  let m =
    run
      { full_cr with
        Config.memory_model = Config.Mem_cache_sim;
        branch_model = Config.Br_gshare;
        frontend_model = Config.Fe_trace_cache;
        wide_regs = 96; narrow_regs = 96 }
  in
  Alcotest.(check int) "commits all" 4_000 m.Metrics.committed

let suite =
  ( "substrates",
    [
      Alcotest.test_case "cache geometry" `Quick test_cache_geometry;
      Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
      Alcotest.test_case "cache LRU" `Quick test_cache_lru;
      Alcotest.test_case "hierarchy latencies" `Quick test_hierarchy_latencies;
      Alcotest.test_case "gshare bias" `Quick test_gshare_learns_bias;
      Alcotest.test_case "gshare pattern" `Quick test_gshare_learns_pattern;
      Alcotest.test_case "gshare validation" `Quick test_gshare_validation;
      Alcotest.test_case "trace cache" `Quick test_trace_cache;
      Alcotest.test_case "register files" `Quick test_regfile;
      Alcotest.test_case "CR tag counters" `Quick test_cr_tags;
      Alcotest.test_case "modeled memory end-to-end" `Quick
        test_modeled_memory_completes;
      Alcotest.test_case "gshare end-to-end" `Quick test_gshare_model_completes;
      Alcotest.test_case "trace cache end-to-end" `Quick
        test_trace_cache_model_completes;
      Alcotest.test_case "register pressure" `Quick test_small_regfile_pressure;
      Alcotest.test_case "all substrates together" `Quick
        test_all_substrates_together;
    ] )
