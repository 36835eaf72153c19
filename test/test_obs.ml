(* The telemetry subsystem: ring buffer wrap-around, interval sampling
   algebra, the zero-perturbation guarantee (metrics bit-identical with
   tracing on or off), aggregate==final-metrics, Chrome trace JSON
   well-formedness, Metrics.to_json, Telemetry.mkdir_p, and the domain
   pool's worker profiling counters. *)

module Ring = Hc_obs.Ring
module Event = Hc_obs.Event
module Sample = Hc_obs.Sample
module Sink = Hc_obs.Sink
module Chrome_trace = Hc_obs.Chrome_trace
module Telemetry = Hc_core.Telemetry
module Domain_pool = Hc_core.Domain_pool
module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Counts = Hc_obs.Counts

(* ----- a minimal JSON validator (no dependencies): accepts exactly the
   RFC 8259 grammar we emit, rejects trailing garbage ----- *)

let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then advance () else fail () in
  let literal lit =
    String.iter (fun c -> expect c) lit
  in
  let parse_string () =
    expect '"';
    let rec loop () =
      match peek () with
      | None -> fail ()
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        ( match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail ()
          done
        | _ -> fail () );
        loop ()
      | Some c when Char.code c < 0x20 -> fail ()
      | Some _ ->
        advance ();
        loop ()
    in
    loop ()
  in
  let parse_number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let saw = ref false in
      let rec d () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          d ()
        | _ -> ()
      in
      d ();
      if not !saw then fail ()
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    ( match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> () )
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail ()
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail ()
        in
        elements ()
      end
    | Some '"' -> parse_string ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail ()
  in
  try
    parse_value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_json_validator () =
  (* the validator itself has to be trustworthy before the real tests
     lean on it *)
  List.iter
    (fun s -> Alcotest.(check bool) ("accepts " ^ s) true (json_valid s))
    [
      "{}"; "[]"; "[1,2,3]"; "{\"a\":1,\"b\":[true,false,null]}";
      "-1.5e-3"; "\"esc\\n\\u00e9\""; " { \"x\" : { } } ";
    ];
  List.iter
    (fun s -> Alcotest.(check bool) ("rejects " ^ s) false (json_valid s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "{} x"; "01x"; "\"unterminated" ]

(* ----- ring buffer ----- *)

let test_ring_wrap () =
  let r = Ring.create ~capacity:4 ~dummy:(-1) in
  for i = 0 to 9 do
    Ring.push r i
  done;
  Alcotest.(check int) "length" 4 (Ring.length r);
  Alcotest.(check int) "pushed" 10 (Ring.pushed r);
  Alcotest.(check int) "dropped" 6 (Ring.dropped r);
  Alcotest.(check (list int)) "last 4 retained, oldest first" [ 6; 7; 8; 9 ]
    (Ring.to_list r);
  Alcotest.(check int) "fold" (6 + 7 + 8 + 9) (Ring.fold ( + ) 0 r)

let test_ring_partial () =
  let r = Ring.create ~capacity:8 ~dummy:0 in
  List.iter (Ring.push r) [ 3; 1; 4 ];
  Alcotest.(check (list int)) "no wrap: insertion order" [ 3; 1; 4 ]
    (Ring.to_list r);
  Alcotest.(check int) "dropped" 0 (Ring.dropped r);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create ~capacity:0 ~dummy:0))

(* ----- sample algebra ----- *)

let test_sample_algebra () =
  let vec pairs =
    let v = Counts.make () in
    List.iter (fun (id, n) -> v.(id) <- n) pairs;
    v
  in
  let t1 =
    vec Counts.[ (committed, 10); (copies, 3); (issue_wide, 8); (issue_narrow, 4) ]
  in
  let t2 =
    vec Counts.[ (committed, 25); (copies, 7); (issue_wide, 20); (issue_narrow, 10) ]
  in
  let d = Counts.sub t2 t1 in
  Alcotest.(check int) "delta committed" 15 d.(Counts.committed);
  Alcotest.(check int) "delta copies" 4 d.(Counts.copies);
  let back = Counts.add t1 d in
  Alcotest.(check bool) "add inverts sub" true (back = t2);
  let s1 = Sample.make ~t_start:0 ~t_end:100 ~iq_wide:2 ~iq_narrow:1 ~rob:5 t1 in
  let s2 = Sample.make ~t_start:100 ~t_end:200 ~iq_wide:0 ~iq_narrow:0 ~rob:0 d in
  Alcotest.(check bool) "aggregate sums the deltas" true
    (Sample.aggregate [ s1; s2 ] = t2);
  (* IPC: committed per wide cycle = per (ticks/2) *)
  Alcotest.(check (float 1e-9)) "ipc" 0.2 (Sample.ipc s1);
  (* the CSV row always matches the header's column count *)
  let cols s = List.length (String.split_on_char ',' s) in
  Alcotest.(check int) "csv columns" (cols Sample.csv_header)
    (cols (Sample.to_csv_row s1));
  Alcotest.(check bool) "sample json valid" true (json_valid (Sample.to_json s1));
  (* issued_total is derived: the sum of the two issue counters *)
  let field row name =
    let header = String.split_on_char ',' Sample.csv_header in
    let rec go = function
      | h :: hs, c :: cs -> if h = name then c else go (hs, cs)
      | _ -> Alcotest.failf "no column %s" name
    in
    go (header, String.split_on_char ',' row)
  in
  Alcotest.(check string) "issued_total column" "12"
    (field (Sample.to_csv_row s1) "issued_total")

(* ----- the counter table ----- *)

let test_counter_table () =
  let keys group = List.map Counts.key (Counts.ids group) in
  let activity = keys Counts.Activity and results = keys Counts.Result in
  let stall = keys Counts.Stall in
  (* the "counters" object is written in table order, which must be the
     sorted key order the format has always had *)
  Alcotest.(check (list string)) "activity keys sorted and unique"
    (List.sort_uniq String.compare activity) activity;
  Alcotest.(check int) "result keys unique" (List.length results)
    (List.length (List.sort_uniq String.compare results));
  Alcotest.(check int) "groups partition the table" Counts.n
    (List.length activity + List.length results + List.length stall);
  (* the stall rows are lane-major in column order, so [Counts.stall]
     indexes them *)
  Alcotest.(check (list string)) "stall rows: lanes x columns"
    (List.concat_map
       (fun lane -> List.map (fun col -> lane ^ "_" ^ col) Counts.stall_columns)
       Counts.stall_lanes)
    stall;
  List.iteri
    (fun lane lane_name ->
      List.iteri
        (fun k col ->
          Alcotest.(check string) "stall id" (lane_name ^ "_" ^ col)
            (Counts.key (Counts.stall ~lane k)))
        Counts.stall_columns)
    Counts.stall_lanes;
  Alcotest.(check bool) "every result always present" true
    (List.for_all
       (fun id -> Counts.table.(id).Counts.presence = Counts.Always)
       Counts.results);
  List.iter
    (fun group ->
      List.iter
        (fun id ->
          Alcotest.(check (option int)) ("find " ^ Counts.key id) (Some id)
            (Counts.find group (Counts.key id)))
        (Counts.ids group))
    [ Counts.Result; Counts.Activity; Counts.Stall ];
  Alcotest.(check (option int)) "find unknown" None
    (Counts.find Counts.Activity "no_such_counter")

(* ----- pipeline instrumentation ----- *)

let obs_trace =
  lazy (Generator.generate_sliced ~length:2_000 (Profile.find_spec_int "gcc"))

let run_scheme ?sink scheme =
  let cfg =
    if scheme = "baseline" then Config.baseline
    else Config.with_scheme Config.default (Config.find_scheme scheme)
  in
  Pipeline.run ?sink ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:scheme
    (Lazy.force obs_trace)

let metrics_equal ~cell (a : Metrics.t) (b : Metrics.t) =
  let check what x y = Alcotest.(check int) (cell ^ ": " ^ what) x y in
  Array.iteri
    (fun id (e : Counts.entry) ->
      check e.Counts.key a.Metrics.counts.(id) b.Metrics.counts.(id))
    Counts.table

let test_observation_is_free () =
  (* the whole point of the sink design: attaching full tracing AND the
     interval sampler must not change a single metric *)
  List.iter
    (fun scheme ->
      let plain = run_scheme scheme in
      let sink = Sink.create ~ring_capacity:1024 ~interval:250 ~tracing:true () in
      let observed = run_scheme ~sink scheme in
      metrics_equal ~cell:(scheme ^ " traced") plain observed;
      Alcotest.(check bool)
        (scheme ^ ": events were recorded")
        true
        (Sink.events_pushed sink > 0))
    [ "baseline"; "8_8_8"; "+IR" ]

let test_interval_aggregate_equals_metrics () =
  List.iter
    (fun interval ->
      let sink = Sink.create ~interval ~tracing:false () in
      let m = run_scheme ~sink "+IR" in
      let agg = Sample.aggregate (Sink.samples sink) in
      let cell = Printf.sprintf "interval=%d" interval in
      Alcotest.(check bool) (cell ^ ": sampled") true (Sink.sample_count sink > 0);
      Array.iteri
        (fun id (e : Counts.entry) ->
          Alcotest.(check int) (cell ^ ": " ^ e.Counts.key)
            m.Metrics.counts.(id) agg.(id))
        Counts.table;
      (* monotone, contiguous, non-empty intervals *)
      let rec contiguous = function
        | a :: (b :: _ as rest) ->
          Alcotest.(check int) (cell ^ ": contiguous") a.Sample.t_end
            b.Sample.t_start;
          contiguous rest
        | _ -> ()
      in
      contiguous (Sink.samples sink))
    [ 100; 1_000; 1_000_000 (* one giant interval: only the tail flush *) ]

let test_chrome_trace_json () =
  let sink = Sink.create ~interval:500 ~tracing:true () in
  ignore (run_scheme ~sink "+IR");
  let events = Sink.events sink in
  Alcotest.(check bool) "have events" true (events <> []);
  let js =
    Chrome_trace.to_string
      ~ring:(Sink.events_pushed sink, Sink.events_dropped sink)
      ~events ~samples:(Sink.samples sink) ()
  in
  Alcotest.(check bool) "chrome trace JSON parses" true (json_valid js);
  (* spans and counters actually made it in *)
  let contains needle =
    let nl = String.length needle and hl = String.length js in
    let rec go i =
      i + nl <= hl && (String.sub js i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
  Alcotest.(check bool) "has complete spans" true (contains "\"ph\":\"X\"");
  Alcotest.(check bool) "has counter samples" true (contains "\"ph\":\"C\"");
  Alcotest.(check bool) "has thread metadata" true
    (contains "\"thread_name\"");
  Alcotest.(check bool) "has ring metadata" true
    (contains "\"events_pushed\"");
  (* empty trace is still valid JSON *)
  Alcotest.(check bool) "empty trace parses" true
    (json_valid (Chrome_trace.to_string ~events:[] ~samples:[] ()))

let test_metrics_to_json () =
  let m = run_scheme "+CR" in
  let js = Metrics.to_json m in
  Alcotest.(check bool) "metrics JSON parses" true (json_valid js)

(* ----- telemetry file plumbing ----- *)

let test_mkdir_p_nested () =
  let base =
    Filename.concat (Filename.get_temp_dir_name ()) "hc_obs_test_mkdir"
  in
  let deep = Filename.concat (Filename.concat base "a") "b" in
  (* repeatable: already-existing prefixes must not raise *)
  Telemetry.mkdir_p deep;
  Telemetry.mkdir_p deep;
  Alcotest.(check bool) "nested dir exists" true
    (Sys.file_exists deep && Sys.is_directory deep);
  let sink = Sink.create ~interval:500 ~tracing:false () in
  ignore (run_scheme ~sink "+IR");
  let nested = Filename.concat deep "series.csv" in
  let written = Telemetry.write_intervals_csv ~path:nested (Sink.samples sink) in
  Alcotest.(check bool) "csv written through parents" true
    (Sys.file_exists written);
  let jpath = Filename.concat deep "series.json" in
  ignore (Telemetry.write_intervals_json ~path:jpath (Sink.samples sink));
  let ic = open_in jpath in
  let len = in_channel_length ic in
  let js = really_input_string ic len in
  close_in ic;
  Alcotest.(check bool) "intervals JSON parses" true (json_valid js)

let test_run_basename () =
  Alcotest.(check string) "sanitized"
    "+IR__gcc.intervals.csv"
    (Telemetry.run_basename ~scheme:"+IR" ~name:"gcc" ^ ".intervals.csv");
  let b = Telemetry.run_basename ~scheme:"a/b c" ~name:"x:y" in
  Alcotest.(check bool) "no separators survive" false
    (String.exists (fun c -> c = '/' || c = ' ' || c = ':') b)

(* ----- domain pool profiling ----- *)

let test_pool_profiling () =
  let pool = Domain_pool.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let n = 64 in
      ignore (Domain_pool.map pool (fun x -> x * x) (Array.init n Fun.id));
      let stats = Domain_pool.stats pool in
      Alcotest.(check int) "one slot per worker" 3 (Array.length stats);
      let total =
        Array.fold_left (fun acc s -> acc + s.Domain_pool.w_tasks) 0 stats
      in
      Alcotest.(check int) "every task accounted once" n total;
      Alcotest.(check bool) "busy time non-negative" true
        (Array.for_all (fun s -> s.Domain_pool.w_busy_s >= 0.) stats);
      Alcotest.(check bool) "queue depth observed" true
        (Domain_pool.max_queue_depth pool > 0);
      (* a second batch accumulates *)
      ignore (Domain_pool.map pool succ (Array.init 10 Fun.id));
      let total' =
        Array.fold_left
          (fun acc s -> acc + s.Domain_pool.w_tasks)
          0 (Domain_pool.stats pool)
      in
      Alcotest.(check int) "counters accumulate" (n + 10) total')

let test_pool_profiling_sequential () =
  let pool = Domain_pool.create ~jobs:1 in
  ignore (Domain_pool.map pool succ (Array.init 5 Fun.id));
  let stats = Domain_pool.stats pool in
  Alcotest.(check int) "single inline slot" 1 (Array.length stats);
  Alcotest.(check int) "inline tasks counted" 5 stats.(0).Domain_pool.w_tasks;
  Domain_pool.shutdown pool

let suite =
  ( "obs",
    [
      Alcotest.test_case "json validator sanity" `Quick test_json_validator;
      Alcotest.test_case "ring wrap-around" `Quick test_ring_wrap;
      Alcotest.test_case "ring partial fill" `Quick test_ring_partial;
      Alcotest.test_case "sample delta algebra" `Quick test_sample_algebra;
      Alcotest.test_case "counter table declared order" `Quick
        test_counter_table;
      Alcotest.test_case "tracing leaves metrics bit-identical" `Slow
        test_observation_is_free;
      Alcotest.test_case "interval aggregate == final metrics" `Slow
        test_interval_aggregate_equals_metrics;
      Alcotest.test_case "chrome trace JSON well-formed" `Slow
        test_chrome_trace_json;
      Alcotest.test_case "metrics to_json well-formed" `Slow
        test_metrics_to_json;
      Alcotest.test_case "mkdir_p + interval files" `Quick test_mkdir_p_nested;
      Alcotest.test_case "telemetry run basenames" `Quick test_run_basename;
      Alcotest.test_case "pool worker profiling" `Quick test_pool_profiling;
      Alcotest.test_case "pool profiling inline" `Quick
        test_pool_profiling_sequential;
    ] )
