(* Aggregates every suite; run with `dune runtest`. *)

let () =
  Alcotest.run "helper_cluster"
    [
      Test_value.suite;
      Test_detector.suite;
      Test_width.suite;
      Test_reg.suite;
      Test_opcode.suite;
      Test_uop.suite;
      Test_semantics.suite;
      Test_rng.suite;
      Test_profile.suite;
      Test_generator.suite;
      Test_analysis.suite;
      Test_workloads.suite;
      Test_stats.suite;
      Test_predictors.suite;
      Test_config.suite;
      Test_policy.suite;
      Test_pipeline.suite;
      Test_alloc.suite;
      Test_accounting.suite;
      Test_metrics.suite;
      Test_power.suite;
      Test_experiments.suite;
      Test_ablations.suite;
      Test_substrates.suite;
      Test_related.suite;
      Test_export.suite;
      Test_trace_io.suite;
      Test_codec.suite;
      Test_cache.suite;
      Test_analysis_static.suite;
      Test_uop_soa.suite;
      Test_fuzz.suite;
      Test_parallel.suite;
      Test_obs.suite;
      Test_golden.suite;
    Test_registry.suite;
      Test_report.suite;
    ]
