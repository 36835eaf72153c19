(* The observability layer: metrics-registry semantics (registration,
   kinds, log2 histogram bucketing with pinned percentile vectors),
   deterministic shard-merged scrapes under Domain_pool (including a
   QCheck sweep over arbitrary op interleavings), the ambient on/off
   discipline and its zero-perturbation guarantee, registry aggregates
   matching the Metrics / Artifact_cache / Domain_pool ground truth on
   all 12 seed workloads, span collection + JSONL export read back
   through lib/report's strict parser, Prometheus exposition round-trip,
   the live progress reporter, and the sink's dropped-event warning. *)

module Registry = Hc_obs.Registry
module Span = Hc_obs.Span
module Log = Hc_obs.Log
module Prom = Hc_obs.Prom
module Sink = Hc_obs.Sink
module Event = Hc_obs.Event
module Json = Hc_report.Json
module Domain_pool = Hc_core.Domain_pool
module Artifact_cache = Hc_core.Artifact_cache
module Telemetry = Hc_core.Telemetry
module Runs = Hc_core.Runs
module Profile = Hc_trace.Profile
module Metrics = Hc_sim.Metrics
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* scratch paths *)
let tmp_path suffix =
  let path = Filename.temp_file "hc_test_registry" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let tmp_dir () =
  let path = Filename.temp_file "hc_test_registry" ".d" in
  Sys.remove path;
  at_exit (fun () -> rm_rf path);
  path

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ----- counters, gauges, registration ----- *)

let test_counter_basics () =
  let r = Registry.create () in
  let c = Registry.counter r ~help:"h" "a_total" in
  Registry.inc c;
  Registry.add c 41;
  (* same name and labels return the same cell *)
  Registry.inc (Registry.counter r "a_total");
  let samples = Registry.scrape r in
  check_int "merged" 43 (Registry.counter_value samples "a_total");
  (* distinct labels are distinct series *)
  let cl = Registry.counter r ~labels:[ ("k", "x") ] "a_total" in
  Registry.add cl 5;
  let samples = Registry.scrape r in
  check_int "labeled" 5
    (Registry.counter_value samples ~labels:[ ("k", "x") ] "a_total");
  check_int "unlabeled unchanged" 43 (Registry.counter_value samples "a_total");
  (* kind clash and bad names are programmer errors *)
  check "kind clash" true
    (match Registry.gauge r "a_total" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "bad name" true
    (match Registry.counter r "9bad" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* reset zeroes values but keeps registrations *)
  Registry.reset r;
  check_int "after reset" 0 (Registry.counter_value (Registry.scrape r) "a_total")

let test_gauge_ops () =
  let r = Registry.create () in
  let g = Registry.gauge r "depth" in
  Registry.gauge_set g 7;
  check_int "set" 7 (Registry.gauge_get g);
  Registry.gauge_add g 3;
  check_int "add" 10 (Registry.gauge_get g);
  Registry.gauge_max g 4;
  check_int "max no-op" 10 (Registry.gauge_get g);
  Registry.gauge_max g 25;
  check_int "max raises" 25 (Registry.gauge_get g);
  match Registry.find_value (Registry.scrape r) "depth" [] with
  | Some (Registry.Gauge_v 25) -> ()
  | _ -> Alcotest.fail "gauge not scraped as Gauge_v 25"

(* ----- histogram bucketing ----- *)

let test_bucket_boundaries () =
  (* bucket 0 holds v <= 0; bucket b >= 1 holds 2^(b-1) <= v < 2^b *)
  List.iter
    (fun (v, b) ->
      check_int (Printf.sprintf "bucket_of %d" v) b (Registry.bucket_of v))
    [ (min_int, 0); (-1, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3);
      (8, 4); (1023, 10); (1024, 11); (1 lsl 40, 41); (max_int, Registry.num_buckets - 1) ];
  (* inclusive upper edges *)
  check_int "le 0" 0 (Registry.bucket_le 0);
  check_int "le 3" 7 (Registry.bucket_le 3);
  check_int "le 10" 1023 (Registry.bucket_le 10);
  (* edge consistency: every positive v is covered by its bucket's edges *)
  List.iter
    (fun v ->
      let b = Registry.bucket_of v in
      check (Printf.sprintf "le covers %d" v) true (Registry.bucket_le b >= v);
      if b > 0 then
        check
          (Printf.sprintf "prev le excludes %d" v)
          true
          (Registry.bucket_le (b - 1) < v))
    [ 1; 2; 3; 5; 16; 17; 255; 256; 100_000; 1 lsl 30 ]

let test_pinned_percentiles () =
  let r = Registry.create () in
  let h = Registry.histogram r "lat" in
  (* pinned vector: 1,2,3,4,5,6,7,8 -> buckets b1:{1} b2:{2,3} b3:{4..7} b4:{8} *)
  for v = 1 to 8 do
    Registry.observe h v
  done;
  match Registry.find_value (Registry.scrape r) "lat" [] with
  | Some (Registry.Histogram_v hv) ->
    check_int "count" 8 hv.Registry.h_count;
    check_int "sum" 36 hv.Registry.h_sum;
    check_int "b1" 1 hv.Registry.buckets.(1);
    check_int "b2" 2 hv.Registry.buckets.(2);
    check_int "b3" 4 hv.Registry.buckets.(3);
    check_int "b4" 1 hv.Registry.buckets.(4);
    (* percentiles: smallest bucket edge covering the fraction *)
    check_int "p125" 1 (Registry.hist_percentile hv 0.125);
    check_int "p25" 3 (Registry.hist_percentile hv 0.25);
    check_int "p50" 7 (Registry.hist_percentile hv 0.5);
    check_int "p875" 7 (Registry.hist_percentile hv 0.875);
    check_int "p100" 15 (Registry.hist_percentile hv 1.0);
    check_int "empty" 0
      (Registry.hist_percentile
         { Registry.buckets = Array.make Registry.num_buckets 0;
           h_count = 0; h_sum = 0 }
         0.5);
    check "bad p" true
      (match Registry.hist_percentile hv 1.5 with
      | exception Invalid_argument _ -> true
      | _ -> false)
  | _ -> Alcotest.fail "histogram not scraped"

(* ----- deterministic scrape under Domain_pool ----- *)

let test_shard_merge_parallel () =
  let r = Registry.create () in
  let c = Registry.counter r "ops_total" in
  let h = Registry.histogram r "vals" in
  let pool = Domain_pool.get () in
  (* 64 tasks x 100 increments, spread across every worker domain *)
  ignore
    (Domain_pool.map_list pool
       (fun k ->
         for i = 1 to 100 do
           Registry.add c k;
           Registry.observe h i
         done;
         k)
       (List.init 64 (fun k -> k)));
  let expected_c = 100 * (64 * 63 / 2) in
  let samples = Registry.scrape r in
  check_int "counter merged" expected_c
    (Registry.counter_value samples "ops_total");
  ( match Registry.find_value samples "vals" [] with
  | Some (Registry.Histogram_v hv) ->
    check_int "hist count" (64 * 100) hv.Registry.h_count;
    check_int "hist sum" (64 * (100 * 101 / 2)) hv.Registry.h_sum
  | _ -> Alcotest.fail "histogram missing" );
  (* scrape is stable: a quiesced registry scrapes identically twice *)
  check "stable" true (Registry.scrape r = samples)

let chunk n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let prop_shard_merge_any_interleaving =
  let names = [| "qa_total"; "qb_total"; "qc_total"; "qd_total" |] in
  QCheck.Test.make ~name:"scrape == serial sums under any interleaving"
    ~count:30
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 200) (pair (int_range 0 3) (int_range 0 50))))
    (fun ops ->
      let r = Registry.create () in
      (* serial expectation *)
      let expected = Array.make 4 0 in
      List.iter (fun (i, n) -> expected.(i) <- expected.(i) + n) ops;
      (* parallel execution in arbitrary chunks across the pool *)
      let pool = Domain_pool.get () in
      ignore
        (Domain_pool.map_list pool
           (fun ops ->
             List.iter
               (fun (i, n) -> Registry.add (Registry.counter r names.(i)) n)
               ops;
             0)
           (chunk 7 ops));
      let samples = Registry.scrape r in
      Array.to_list expected
      = List.map
          (fun name -> Registry.counter_value samples name)
          (Array.to_list names))

(* ----- ambient discipline ----- *)

let test_ambient_discipline () =
  Registry.disable ();
  check "off" false (Registry.is_enabled ());
  let called = ref false in
  Registry.with_ambient (fun _ -> called := true);
  check "guard skips" false !called;
  let r = Registry.enable () in
  check "idempotent" true (Registry.enable () == r);
  Registry.with_ambient (fun _ -> called := true);
  check "guard runs" true !called;
  Registry.disable ();
  check "off again" true (Registry.ambient () = None)

(* ----- registry aggregates == ground truth on the 12 seed workloads ----- *)

let sum_pool_tasks () =
  Array.fold_left
    (fun acc (s : Domain_pool.worker_stats) -> acc + s.Domain_pool.w_tasks)
    0
    (Domain_pool.stats (Domain_pool.get ()))

let test_aggregates_match_ground_truth () =
  let scheme = "8_8_8" in
  let length = 2_000 in
  let root = tmp_dir () in
  Registry.disable ();
  Span.disable ();
  let r = Registry.enable () in
  Registry.reset r;
  ignore (Span.enable ());
  Fun.protect
    ~finally:(fun () ->
      Registry.disable ();
      Span.disable ())
    (fun () ->
      let tasks0 = sum_pool_tasks () in
      let cache = Artifact_cache.create ~root () in
      let t = Runs.create ~length ~cache () in
      let sweep = List.map (fun p -> (scheme, p)) Runs.spec_profiles in
      Runs.ensure t sweep;
      let samples = Registry.scrape r in
      (* Metrics ground truth: uops retired == sum of committed *)
      let committed =
        List.fold_left
          (fun acc p -> acc + (Runs.metrics t ~scheme p).Metrics.committed)
          0 Runs.spec_profiles
      in
      check_int "uops retired == sum committed" committed
        (Registry.counter_value samples "hc_uops_retired_total");
      check_int "sim runs == cells" (List.length sweep)
        (Registry.counter_value samples "hc_sim_runs_total");
      (* Domain_pool ground truth: tasks counter == worker_stats delta *)
      check_int "pool tasks == worker stats"
        (sum_pool_tasks () - tasks0)
        (Registry.counter_value samples "hc_pool_tasks_total");
      (* Artifact_cache ground truth: per-kind counters == counts record *)
      let c = Artifact_cache.counts cache in
      check_int "trace misses" c.Artifact_cache.trace_misses
        (Registry.counter_value samples
           ~labels:[ ("kind", "trace") ]
           "hc_cache_misses_total");
      check_int "run misses" c.Artifact_cache.run_misses
        (Registry.counter_value samples
           ~labels:[ ("kind", "run") ]
           "hc_cache_misses_total");
      check_int "no heals" 0
        (c.Artifact_cache.trace_heals + c.Artifact_cache.run_heals);
      (* warm pass: a second Runs over the same root hits every cell *)
      let cache2 = Artifact_cache.create ~root () in
      let t2 = Runs.create ~length ~cache:cache2 () in
      Runs.ensure t2 sweep;
      let samples2 = Registry.scrape r in
      let c2 = Artifact_cache.counts cache2 in
      check_int "warm run hits" (List.length sweep) c2.Artifact_cache.run_hits;
      check_int "registry run hits == counts"
        c2.Artifact_cache.run_hits
        (Registry.counter_value samples2
           ~labels:[ ("kind", "run") ]
           "hc_cache_hits_total");
      (* warm pass simulated nothing: sim counter unchanged *)
      check_int "warm adds no sims"
        (Registry.counter_value samples "hc_sim_runs_total")
        (Registry.counter_value samples2 "hc_sim_runs_total");
      (* spans: exactly one simulate span per cold cell, none warm *)
      match Span.ambient () with
      | None -> Alcotest.fail "span collector vanished"
      | Some coll ->
        let stages = Span.by_stage (Span.spans coll) in
        let sim =
          List.find_opt (fun s -> s.Span.st_name = "simulate") stages
        in
        check_int "simulate spans == cold cells" (List.length sweep)
          (match sim with Some s -> s.Span.st_count | None -> 0))

(* ----- per-run series come from Pipeline.run itself ----- *)

(* No Runs in between: a direct run is counted, once, at its exit, and a
   sampled run adds one NREADY observation per interval whose sum is the
   run's total. *)
let test_pipeline_records_run_series () =
  let trace =
    Hc_trace.Generator.generate_sliced ~length:3_000
      (Profile.find_spec_int "gcc")
  in
  let cfg = Config.with_scheme Config.default (Config.find_scheme "+IR") in
  let run ?sink () =
    Pipeline.run ?sink ~cfg ~decide:Hc_steering.Policy.decide
      ~scheme_name:"+IR" trace
  in
  let hist samples name =
    match Registry.find_value samples name [] with
    | Some (Registry.Histogram_v hv) -> (hv.Registry.h_count, hv.Registry.h_sum)
    | _ -> (0, 0)
  in
  Registry.disable ();
  let r = Registry.enable () in
  Fun.protect ~finally:Registry.disable (fun () ->
      let m = run () in
      let s1 = Registry.scrape r in
      check_int "one run" 1 (Registry.counter_value s1 "hc_sim_runs_total");
      check_int "uops retired == committed" m.Metrics.committed
        (Registry.counter_value s1 "hc_uops_retired_total");
      check "ticks observed once" true
        (hist s1 "hc_sim_run_ticks" = (1, m.Metrics.ticks));
      check "no sink, no NREADY samples" true
        (hist s1 "hc_nready_w2n_per_interval" = (0, 0));
      (* the work counters: every issued node is read from a ready list
         at least once, and wakeups re-check queued nodes *)
      let visits1 = Registry.counter_value s1 "hc_issue_visits_total"
      and touches1 = Registry.counter_value s1 "hc_wakeup_touches_total" in
      let issued =
        m.Metrics.counts.(Hc_obs.Counts.issue_wide)
        + m.Metrics.counts.(Hc_obs.Counts.issue_narrow)
      in
      check "issue visits >= issued nodes" true (issued > 0 && visits1 >= issued);
      check "wakeup touches recorded" true (touches1 > 0);
      let sink = Sink.create ~interval:500 ~tracing:false () in
      let m2 = run ~sink () in
      let n = Sink.sample_count sink in
      check "several intervals" true (n > 1);
      let s2 = Registry.scrape r in
      check_int "two runs" 2 (Registry.counter_value s2 "hc_sim_runs_total");
      check_int "uops retired == both runs"
        (m.Metrics.committed + m2.Metrics.committed)
        (Registry.counter_value s2 "hc_uops_retired_total");
      check "w2n: one observation per sample" true
        (hist s2 "hc_nready_w2n_per_interval" = (n, m2.Metrics.nready_w2n));
      check "n2w: one observation per sample" true
        (hist s2 "hc_nready_n2w_per_interval" = (n, m2.Metrics.nready_n2w));
      (* the same run again: the work counters are deterministic *)
      check_int "visits: the same run does the same work" (2 * visits1)
        (Registry.counter_value s2 "hc_issue_visits_total");
      check_int "touches: the same run does the same work" (2 * touches1)
        (Registry.counter_value s2 "hc_wakeup_touches_total"))

(* ----- observation leaves results bit-identical ----- *)

let test_observation_is_free () =
  Registry.disable ();
  Span.disable ();
  let p = Profile.find_spec_int "gcc" in
  let plain =
    let t = Runs.create ~length:2_000 () in
    Metrics.to_json (Runs.metrics t ~scheme:"+IR" p)
  in
  ignore (Registry.enable ());
  ignore (Span.enable ());
  let observed =
    Fun.protect
      ~finally:(fun () ->
        Registry.disable ();
        Span.disable ())
      (fun () ->
        let t = Runs.create ~length:2_000 () in
        Metrics.to_json (Runs.metrics t ~scheme:"+IR" p))
  in
  check_str "metrics bit-identical under observation" plain observed

(* ----- spans: collection + JSONL read back through the strict parser ----- *)

let test_span_log_roundtrip () =
  Span.disable ();
  ignore (Span.enable ());
  let spans =
    Fun.protect
      ~finally:(fun () -> Span.disable ())
      (fun () ->
        check_int "trivial result" 7
          (Span.with_span ~meta:[ ("k", "v\"x") ] "stage-a" (fun () -> 7));
        ignore (Span.with_span "stage-b" (fun () -> Sys.opaque_identity 1));
        ignore (Span.with_span "stage-a" (fun () -> Sys.opaque_identity 2));
        match Span.ambient () with
        | Some c -> Span.spans c
        | None -> Alcotest.fail "collector vanished")
  in
  check_int "three spans" 3 (List.length spans);
  let path = tmp_path ".jsonl" in
  ignore (Log.write_spans ~path spans);
  let lines =
    String.split_on_char '\n' (String.trim (read_file path))
  in
  check_int "three lines" 3 (List.length lines);
  List.iter2
    (fun line (sp : Span.span) ->
      match Json.parse line with
      | Error at ->
        Alcotest.failf "span JSONL line rejected by strict parser at %d" at
      | Ok j ->
        let str k = Option.bind (Json.member k j) Json.string_value in
        let num k = Option.bind (Json.member k j) Json.number in
        check "schema" true (num "schema" = Some (float_of_int Log.schema));
        check "kind" true (str "kind" = Some "span");
        check "name" true (str "name" = Some sp.Span.sp_name);
        check "track" true (str "track" = Some sp.Span.sp_track);
        check "dur" true
          (num "dur_ns" = Some (float_of_int sp.Span.sp_dur_ns));
        (* meta objects survive, including escaped values *)
        List.iter
          (fun (k, v) ->
            check "meta" true
              (Option.bind (Json.find_path [ "meta"; k ] j) Json.string_value
              = Some v))
          sp.Span.sp_meta)
    lines spans;
  (* aggregation *)
  let stages = Span.by_stage spans in
  check_int "two stages" 2 (List.length stages);
  let a = List.hd stages in
  check_str "sorted by name" "stage-a" a.Span.st_name;
  check_int "stage-a count" 2 a.Span.st_count;
  (* streaming writer *)
  let path2 = tmp_path ".jsonl" in
  let w = Log.create ~path:path2 in
  Log.log_span w (List.hd spans);
  Log.log_event w ~name:"note" ~fields:[ ("n", "3") ];
  check_int "writer lines" 2 (Log.lines w);
  Log.close w;
  let ls = String.split_on_char '\n' (String.trim (read_file path2)) in
  List.iter
    (fun l -> check "writer line parses" true (Result.is_ok (Json.parse l)))
    ls

(* ----- Prometheus exposition round-trip ----- *)

let test_prom_roundtrip () =
  let r = Registry.create () in
  Registry.add (Registry.counter r ~help:"ops with \"quotes\"\n" "p_ops_total") 42;
  Registry.add
    (Registry.counter r ~labels:[ ("kind", "tr\\ace") ] "p_ops_total")
    7;
  Registry.gauge_set (Registry.gauge r "p_depth") 5;
  let h = Registry.histogram r "p_lat" in
  List.iter (Registry.observe h) [ 1; 2; 3; 900 ];
  let text = Prom.to_string (Registry.scrape r) in
  match Prom.parse text with
  | Error e -> Alcotest.failf "self-emitted exposition rejected: %s" e
  | Ok entries ->
    let find name labels =
      List.find_opt
        (fun (e : Prom.entry) ->
          e.Prom.e_name = name && List.sort compare e.Prom.e_labels = List.sort compare labels)
        entries
    in
    check "counter" true
      (Option.map (fun e -> e.Prom.e_value) (find "p_ops_total" [])
      = Some 42.);
    (* label escapes survive the round trip *)
    check "escaped label" true
      (Option.map (fun e -> e.Prom.e_value)
         (find "p_ops_total" [ ("kind", "tr\\ace") ])
      = Some 7.);
    check "gauge" true
      (Option.map (fun e -> e.Prom.e_value) (find "p_depth" []) = Some 5.);
    check "hist count" true
      (Option.map (fun e -> e.Prom.e_value) (find "p_lat_count" []) = Some 4.);
    check "hist sum" true
      (Option.map (fun e -> e.Prom.e_value) (find "p_lat_sum" []) = Some 906.);
    (* +Inf bucket must equal the count, and buckets must be cumulative *)
    check "inf bucket" true
      (Option.map (fun e -> e.Prom.e_value)
         (find "p_lat_bucket" [ ("le", "+Inf") ])
      = Some 4.);
    let buckets =
      List.filter (fun (e : Prom.entry) -> e.Prom.e_name = "p_lat_bucket") entries
    in
    let values = List.map (fun (e : Prom.entry) -> e.Prom.e_value) buckets in
    check "cumulative" true (List.sort compare values = values);
    (* series keys: exposition spelling, labels sorted, one per sample *)
    let key name labels =
      Prom.series_key { Prom.e_name = name; e_labels = labels; e_value = 0. }
    in
    check_str "label-free key" "p_depth" (key "p_depth" []);
    check_str "labels sorted by name" "m{a=\"2\",z=\"1\"}"
      (key "m" [ ("z", "1"); ("a", "2") ]);
    check_str "values escaped" "m{k=\"q\\\"b\\\\s\\nl\"}"
      (key "m" [ ("k", "q\"b\\s\nl") ]);
    check_str "escaped label read back" "p_ops_total{kind=\"tr\\\\ace\"}"
      (Option.fold ~none:"" ~some:Prom.series_key
         (find "p_ops_total" [ ("kind", "tr\\ace") ]));
    check_str "bucket suffix" "p_lat_bucket{le=\"+Inf\"}"
      (Option.fold ~none:"" ~some:Prom.series_key
         (find "p_lat_bucket" [ ("le", "+Inf") ]));
    let keys = List.map Prom.series_key entries in
    check_int "keys unique across the scrape" (List.length entries)
      (List.length (List.sort_uniq compare keys));
    (* malformed dumps are rejected with the offending line *)
    ( match Prom.parse "ok_total 1\n!bad name 2\n" with
    | Error msg ->
      check "names line 2" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")
    | Ok _ -> Alcotest.fail "malformed exposition accepted" );
    ( match Prom.parse "ok_total 1 2 3\n" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "trailing garbage accepted" )

(* ----- progress reporter ----- *)

let test_progress_reporter () =
  let path = tmp_path ".progress" in
  let out = open_out path in
  let p = Telemetry.progress_create ~out ~label:"sweep" ~enabled:true () in
  Telemetry.progress_add_total p 3;
  Telemetry.progress_tick ~cached:true p;
  Telemetry.progress_tick p;
  Telemetry.progress_tick p;
  check "snapshot" true (Telemetry.progress_snapshot p = (3, 3, 1));
  Telemetry.progress_finish p;
  close_out out;
  let s = read_file path in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check "prints done/total" true (contains "3/3");
  check "prints warm count" true (contains "1 warm");
  check "prints label" true (contains "sweep:");
  (* disabled reporter writes nothing *)
  let path2 = tmp_path ".progress" in
  let out2 = open_out path2 in
  let q = Telemetry.progress_create ~out:out2 ~enabled:false () in
  Telemetry.progress_add_total q 2;
  Telemetry.progress_tick q;
  Telemetry.progress_finish q;
  close_out out2;
  check_str "silent when disabled" "" (read_file path2)

(* ----- sink summary / dropped warning ----- *)

let test_sink_dropped_warning () =
  let sink = Sink.create ~ring_capacity:4 ~tracing:true () in
  check "complete: no warning" true (Sink.dropped_warning sink = None);
  for _ = 1 to 10 do
    Sink.emit sink Event.dummy
  done;
  ( match Sink.dropped_warning sink with
  | None -> Alcotest.fail "wrapped ring must warn"
  | Some w ->
    check "mentions the flag" true
      (let n = String.length w in
       let rec go i =
         i + 14 <= n && (String.sub w i 14 = "--trace-buffer" || go (i + 1))
       in
       go 0) );
  let s = Sink.summary sink in
  check "summary counts" true
    (s = "events: 10 pushed, 6 dropped (ring wrap); samples: 0")

let suite =
  ( "registry",
    [
      Alcotest.test_case "counter basics" `Quick test_counter_basics;
      Alcotest.test_case "gauge ops" `Quick test_gauge_ops;
      Alcotest.test_case "histogram bucket boundaries" `Quick
        test_bucket_boundaries;
      Alcotest.test_case "pinned percentile vectors" `Quick
        test_pinned_percentiles;
      Alcotest.test_case "parallel shard merge" `Quick test_shard_merge_parallel;
      QCheck_alcotest.to_alcotest prop_shard_merge_any_interleaving;
      Alcotest.test_case "ambient discipline" `Quick test_ambient_discipline;
      Alcotest.test_case "aggregates == ground truth (12 workloads)" `Slow
        test_aggregates_match_ground_truth;
      Alcotest.test_case "Pipeline.run records its own series" `Quick
        test_pipeline_records_run_series;
      Alcotest.test_case "observation is free" `Slow test_observation_is_free;
      Alcotest.test_case "span log JSONL round-trip" `Quick
        test_span_log_roundtrip;
      Alcotest.test_case "prom exposition round-trip" `Quick
        test_prom_roundtrip;
      Alcotest.test_case "progress reporter" `Quick test_progress_reporter;
      Alcotest.test_case "sink dropped warning" `Quick
        test_sink_dropped_warning;
    ] )
