(* Tests for the artifact readback library (lib/report) and the
   steering-attribution invariants it reports on. *)

module Json = Hc_report.Json
module Loader = Hc_report.Loader
module Diff = Hc_report.Diff
module Render = Hc_report.Render
module Sparkline = Hc_report.Sparkline
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Meta = Hc_core.Meta
module Telemetry = Hc_core.Telemetry
module Sink = Hc_obs.Sink
module Sample = Hc_obs.Sample
module Chrome_trace = Hc_obs.Chrome_trace

let trace =
  lazy
    (Hc_trace.Generator.generate_sliced ~length:4_000
       (Hc_trace.Profile.find_spec_int "gcc"))

let run ?sink scheme_name scheme =
  let cfg = Config.with_scheme Config.default scheme in
  Pipeline.run ?sink ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name
    (Lazy.force trace)

(* ----- parser ----- *)

let test_parser_accepts () =
  let ok s =
    match Json.parse s with
    | Ok _ -> ()
    | Error at -> Alcotest.failf "%S rejected at %d" s at
  in
  ok "null";
  ok "true";
  ok "  [1, 2.5, -3e2, \"x\", {\"k\": [[]]}]  ";
  ok "{\"a\":{\"b\":0}}";
  ok "\"esc \\\" \\\\ \\u00e9\""

let test_parser_rejects () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "%S accepted" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "01";
  bad "1 2";
  bad "nul";
  bad "\"unterminated";
  bad "{\"a\":1,}"

let test_raw_lexemes () =
  (* the reason this parser exists: no numeric normalisation on the way
     through, so "1.150" does not become "1.15" *)
  let j = Json.parse_exn "{\"v\":1.150,\"z\":-0.0,\"e\":5e3}" in
  Alcotest.(check string)
    "raw preserved" "{\"v\":1.150,\"z\":-0.0,\"e\":5e3}" (Json.to_string j);
  Alcotest.(check (option (float 1e-9))) "numeric view" (Some 1.15)
    (Option.bind (Json.member "v" j) Json.number)

let test_roundtrip_metrics_json () =
  let m = run "+IR" (Config.find_scheme "+IR") in
  let js = Metrics.to_json m in
  Alcotest.(check string) "metrics bit-for-bit" js
    (Json.to_string (Json.parse_exn js));
  let j = Json.parse_exn js in
  Alcotest.(check (option int)) "schema 5" (Some 5) (Loader.schema j);
  Alcotest.(check (option string)) "scheme field" (Some "+IR")
    (Option.bind (Json.member "scheme" j) Json.string_value);
  (* a name that needs every kind of escape: quote, backslash, newline
     and a control byte *)
  let name = "q\"b\\s\nl\x01c" in
  let js = Metrics.to_json { m with Metrics.name } in
  ( match Json.parse js with
  | Error at -> Alcotest.failf "escaped name rejected at byte %d" at
  | Ok j ->
    Alcotest.(check string) "escaped metrics bit-for-bit" js (Json.to_string j);
    Alcotest.(check (option string)) "name survives" (Some name)
      (Option.bind (Json.member "name" j) Json.string_value) )

let test_roundtrip_meta_json () =
  (* same single-line minified shape Export.write_all puts in meta.json *)
  let line =
    Printf.sprintf "{%s,\"trace_length\":%d}"
      (Meta.to_json_fields (Meta.capture ()))
      4_000
  in
  Alcotest.(check string) "meta bit-for-bit" line
    (Json.to_string (Json.parse_exn line))

(* ----- attribution invariants across the whole policy stack ----- *)

let test_attrib_sums_all_schemes () =
  List.iter
    (fun (name, scheme) ->
      let sink = Sink.create ~interval:300 ~tracing:false () in
      let m = run ~sink name scheme in
      let cell what = Printf.sprintf "%s: %s" name what in
      Alcotest.(check int)
        (cell "narrow attribution sums to steered_narrow")
        m.Metrics.steered_narrow
        (Metrics.attrib_narrow_sum m);
      Alcotest.(check int)
        (cell "steered_ir = split_uops")
        m.Metrics.split_uops m.Metrics.steered_ir;
      Alcotest.(check int)
        (cell "wide columns sum to wide commits")
        (m.Metrics.committed - m.Metrics.steered_narrow)
        (m.Metrics.wide_default + m.Metrics.wide_demoted);
      Alcotest.(check bool) (cell "attrib_consistent") true
        (Metrics.attrib_consistent m);
      (* the identity holds per interval, not just at end of run *)
      List.iter
        (fun (s : Sample.t) ->
          Alcotest.(check bool)
            (cell "interval attribution consistent")
            true
            (Hc_obs.Counts.attrib_consistent s.Sample.d))
        (Sink.samples sink);
      let agg = Sample.aggregate (Sink.samples sink) in
      Alcotest.(check int) (cell "aggregate steered_888")
        m.Metrics.steered_888 agg.(Hc_obs.Counts.steered_888);
      Alcotest.(check int) (cell "aggregate wide_demoted")
        m.Metrics.wide_demoted agg.(Hc_obs.Counts.wide_demoted))
    Hc_steering.Policy.stack

(* ----- diff engine ----- *)

let diff ?tols ?default_tol base cand =
  Diff.run ?tols ?default_tol ~base:(Json.parse_exn base)
    ~cand:(Json.parse_exn cand) ()

let check_exit what expected r =
  Alcotest.(check int) what expected (Diff.exit_code r)

let test_diff_exit_codes () =
  let base = "{\"a\":1,\"b\":2.5}" in
  check_exit "identical passes" 0 (diff base base);
  check_exit "two-sided drift regresses" 1 (diff base "{\"a\":1,\"b\":2.6}");
  check_exit "missing metric" 2 (diff base "{\"a\":1}");
  check_exit "regression outranks missing" 1 (diff base "{\"a\":2}");
  check_exit "new keys are not failures" 0
    (diff base "{\"a\":1,\"b\":2.5,\"c\":9}")

let test_diff_directions () =
  (* ipc only regresses downward *)
  check_exit "ipc rise passes" 0 (diff "{\"ipc\":1.0}" "{\"ipc\":1.2}");
  check_exit "ipc drop regresses" 1 (diff "{\"ipc\":1.2}" "{\"ipc\":1.0}");
  (* cycle counts only regress when they grow *)
  let k v = Printf.sprintf "{\"stall\":{\"cycles\":%s}}" v in
  check_exit "fewer cycles pass" 0 (diff (k "100") (k "50"));
  check_exit "more cycles regress" 1 (diff (k "100") (k "200"));
  check_exit "growth within tolerance passes" 0
    (diff ~tols:[ ("stall.", 0.5) ] (k "100") (k "140"));
  (* host identity and wall clock never compared *)
  check_exit "ignored keys pass" 0
    (diff "{\"unix_time_s\":1.0,\"host_cores\":4,\"schema\":1}"
       "{\"unix_time_s\":9.9,\"host_cores\":64,\"schema\":2}");
  check_exit "ignored keys may vanish" 0
    (diff "{\"meta\":{\"jobs\":4},\"a\":1}" "{\"a\":1}")

let test_diff_tolerances () =
  let base = "{\"a\":100}" and cand = "{\"a\":103}" in
  check_exit "outside default tol" 1 (diff base cand);
  check_exit "inside default tol" 0 (diff ~default_tol:0.05 base cand);
  check_exit "exact key tol" 0 (diff ~tols:[ ("a", 0.05) ] base cand);
  (* longest pattern wins: tight catch-all, loose specific *)
  check_exit "longest match wins" 0
    (diff ~tols:[ ("default", 0.0); ("a", 0.05) ] base cand);
  check_exit "specific can also tighten" 1
    (diff ~tols:[ ("default", 0.1); ("a", 0.0) ] base cand)

let test_diff_real_metrics () =
  let m = run "+CR" (Config.find_scheme "+CR") in
  let j () = Json.parse_exn (Metrics.to_json m) in
  let r = Diff.run ~base:(j ()) ~cand:(j ()) () in
  check_exit "self-diff passes" 0 r;
  Alcotest.(check bool) "compared many metrics" true (r.Diff.compared > 20);
  Alcotest.(check bool) "renderable" true
    (String.length (Render.diff_table ~all:true r) > 0)

(* ----- loaders / render ----- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_csv_roundtrip () =
  let sink = Sink.create ~interval:250 ~tracing:false () in
  let m = run ~sink "+IR" (Config.find_scheme "+IR") in
  let path = tmp "hc_test_intervals.csv" in
  let _ = Telemetry.write_intervals_csv ~path (Sink.samples sink) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Loader.load_csv path with
      | Error e -> Alcotest.fail e
      | Ok csv ->
        Alcotest.(check int) "row count"
          (List.length (Sink.samples sink))
          (Loader.rows csv);
        let sum name =
          match Loader.column csv name with
          | None -> Alcotest.failf "missing column %s" name
          | Some xs -> int_of_float (Array.fold_left ( +. ) 0. xs)
        in
        Alcotest.(check int) "committed column sums to metrics"
          m.Metrics.committed (sum "committed");
        Alcotest.(check int) "attribution column survives CSV"
          m.Metrics.steered_888 (sum "steered_888");
        Alcotest.(check bool) "timeline renders" true
          (String.length (Render.timeline csv) > 0))

let test_ring_info () =
  let with_ring =
    Json.parse_exn
      (Chrome_trace.to_string ~ring:(10, 3) ~events:[] ~samples:[] ())
  in
  Alcotest.(check (option (pair int int))) "ring stats read back"
    (Some (10, 3))
    (Loader.ring_info with_ring);
  let without =
    Json.parse_exn (Chrome_trace.to_string ~events:[] ~samples:[] ())
  in
  Alcotest.(check (option (pair int int))) "absent when not recorded" None
    (Loader.ring_info without)

let test_render_consistency () =
  let m = run "+IR" (Config.find_scheme "+IR") in
  let j = Json.parse_exn (Metrics.to_json m) in
  Alcotest.(check bool) "attrib_consistent on loaded file" true
    (Render.attrib_consistent j);
  Alcotest.(check string) "run label" "gcc [+IR]" (Render.run_label j);
  Alcotest.(check bool) "summary table renders" true
    (String.length (Render.summary_table [ ("m", j) ]) > 0);
  (* a corrupted attribution column must be caught *)
  let broken =
    Json.parse_exn
      "{\"committed\":10,\"steered_narrow\":4,\"split_uops\":0,\
       \"steered_888\":1,\"steered_br\":0,\"steered_cr\":0,\
       \"steered_ir\":0,\"steered_other\":0,\"wide_default\":6,\
       \"wide_demoted\":0}"
  in
  Alcotest.(check bool) "broken sums detected" false
    (Render.attrib_consistent broken)

(* the report library's mirrored stall names against the counter table:
   a renamed or reordered stall row fails here, not in hc_report topdown *)
let test_stall_names_match_counts () =
  let keys =
    List.map Hc_obs.Counts.key (Hc_obs.Counts.ids Hc_obs.Counts.Stall)
  in
  Alcotest.(check (list string)) "lanes x (categories + rounds)" keys
    (List.concat_map
       (fun lane ->
         List.map (fun c -> lane ^ "_" ^ c) (Render.stall_categories @ [ "rounds" ]))
       Render.stall_lanes);
  List.iter
    (fun col ->
      Alcotest.(check bool) (col ^ " is a stall row") true (List.mem col keys))
    Render.stall_timeline_columns

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Sparkline.render [||]);
  Alcotest.(check string) "flat is all dashes" "---"
    (Sparkline.render [| 5.; 5.; 5. |]);
  let s = Sparkline.render [| 0.; 1.; 2.; 3. |] in
  Alcotest.(check int) "one char per point" 4 (String.length s);
  Alcotest.(check char) "min maps low" '_' s.[0];
  Alcotest.(check char) "max maps high" '@' s.[3];
  Alcotest.(check int) "downsampled width" 10
    (String.length
       (Sparkline.render ~width:10 (Array.init 1000 float_of_int)))

let suite =
  ( "report",
    [
      Alcotest.test_case "parser accepts" `Quick test_parser_accepts;
      Alcotest.test_case "parser rejects" `Quick test_parser_rejects;
      Alcotest.test_case "raw lexemes" `Quick test_raw_lexemes;
      Alcotest.test_case "metrics JSON round-trip" `Quick
        test_roundtrip_metrics_json;
      Alcotest.test_case "meta JSON round-trip" `Quick
        test_roundtrip_meta_json;
      Alcotest.test_case "attrib sums on every scheme" `Quick
        test_attrib_sums_all_schemes;
      Alcotest.test_case "diff exit codes" `Quick test_diff_exit_codes;
      Alcotest.test_case "diff directions" `Quick test_diff_directions;
      Alcotest.test_case "diff tolerances" `Quick test_diff_tolerances;
      Alcotest.test_case "diff real metrics" `Quick test_diff_real_metrics;
      Alcotest.test_case "interval CSV round-trip" `Quick test_csv_roundtrip;
      Alcotest.test_case "trace ring metadata" `Quick test_ring_info;
      Alcotest.test_case "render consistency" `Quick test_render_consistency;
      Alcotest.test_case "stall names match the counter table" `Quick
        test_stall_names_match_counts;
      Alcotest.test_case "sparkline" `Quick test_sparkline;
    ] )
