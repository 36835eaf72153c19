(* Tests for the on-disk artifact cache: cold-populate / warm-reload
   equivalence (bit-identical metrics, generation and simulation both
   skipped), the warm-path speedup, self-healing of corrupt entries, and
   the maintenance surface (verify / gc / counters). *)

module Runs = Hc_core.Runs
module Artifact_cache = Hc_core.Artifact_cache
module Metrics = Hc_sim.Metrics
module Profile = Hc_trace.Profile
module Trace_io = Hc_trace.Trace_io

let fresh_root () =
  let p = Filename.temp_file "hc_cache_test" "" in
  Sys.remove p;
  p

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_root f =
  let root = fresh_root () in
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let mcf = Profile.find_spec_int "mcf"

let gzip = Profile.find_spec_int "gzip"

let pairs = [ ("baseline", mcf); ("8_8_8", mcf); ("+IR", gzip) ]

let ensure_json cache_root =
  let cache = Artifact_cache.create ~root:cache_root () in
  let runs = Runs.create ~length:2_000 ~cache () in
  Runs.ensure runs pairs;
  let json =
    List.map
      (fun (scheme, p) -> Metrics.to_json (Runs.metrics runs ~scheme p))
      pairs
  in
  (json, Artifact_cache.counts cache)

let test_warm_bit_identical () =
  with_root (fun root ->
      let cold_json, cold = ensure_json root in
      Alcotest.(check int) "cold pass missed every run" (List.length pairs)
        cold.Artifact_cache.run_misses;
      Alcotest.(check int) "cold pass hit nothing" 0
        cold.Artifact_cache.run_hits;
      let warm_json, warm = ensure_json root in
      (* the JSON byte streams, not just the numbers, must match *)
      List.iteri
        (fun i (c, w) ->
          Alcotest.(check string)
            (Printf.sprintf "metrics %d bit-identical" i)
            c w)
        (List.combine cold_json warm_json);
      Alcotest.(check int) "warm pass hit every run" (List.length pairs)
        warm.Artifact_cache.run_hits;
      (* warm metrics hits shortcut the traces entirely: no generation,
         no decode, no static analysis *)
      Alcotest.(check int) "warm pass never touched a trace" 0
        (warm.Artifact_cache.trace_hits + warm.Artifact_cache.trace_misses))

let test_warm_speedup () =
  with_root (fun root ->
      (* the sweep shape every figure uses: schemes x profiles. Cold pays
         generation AND simulation for every cell; warm reloads finished
         metrics and touches neither. 10x leaves a wide margin over timer
         and scheduler noise while catching any regression that sneaks
         simulation or generation back into the warm path. *)
      let schemes = [ "baseline"; "8_8_8"; "+IR" ] in
      let sweep =
        List.concat_map (fun s -> [ (s, mcf); (s, gzip) ]) schemes
      in
      let time f =
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0
      in
      let cold_runs =
        Runs.create ~length:12_000 ~cache:(Artifact_cache.create ~root ()) ()
      in
      let cold_s = time (fun () -> Runs.ensure cold_runs sweep) in
      let warm_cache = Artifact_cache.create ~root () in
      let warm_runs = Runs.create ~length:12_000 ~cache:warm_cache () in
      let warm_s = time (fun () -> Runs.ensure warm_runs sweep) in
      let counts = Artifact_cache.counts warm_cache in
      Alcotest.(check int) "warm sweep hit every run" (List.length sweep)
        counts.Artifact_cache.run_hits;
      Alcotest.(check int) "warm sweep never touched a trace" 0
        (counts.Artifact_cache.trace_hits + counts.Artifact_cache.trace_misses);
      Alcotest.(check bool)
        (Printf.sprintf "warm (%.3fs) at least 10x faster than cold (%.3fs)"
           warm_s cold_s)
        true
        (warm_s *. 10. < cold_s);
      List.iter
        (fun (scheme, p) ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s bit-identical" scheme p.Profile.name)
            (Metrics.to_json (Runs.metrics cold_runs ~scheme p))
            (Metrics.to_json (Runs.metrics warm_runs ~scheme p)))
        sweep)

let test_trace_self_heal () =
  with_root (fun root ->
      let cache = Artifact_cache.create ~root () in
      let original =
        Artifact_cache.trace_or_generate (Some cache) ~profile:mcf
          ~length:1_500
      in
      let traces_dir = Filename.concat root "traces" in
      let entry =
        match Sys.readdir traces_dir with
        | [| name |] -> Filename.concat traces_dir name
        | a -> Alcotest.failf "expected 1 trace entry, found %d" (Array.length a)
      in
      (* truncate the published entry in place *)
      let ic = open_in_bin entry in
      let data = really_input_string ic (in_channel_length ic / 2) in
      close_in ic;
      let oc = open_out_bin entry in
      output_string oc data;
      close_out oc;
      Alcotest.(check bool) "corrupt entry reads as a miss" true
        (Artifact_cache.find_trace cache ~profile:mcf ~length:1_500 = None);
      Alcotest.(check bool) "corrupt entry deleted (self-heal)" false
        (Sys.file_exists entry);
      let regenerated =
        Artifact_cache.trace_or_generate (Some cache) ~profile:mcf
          ~length:1_500
      in
      Alcotest.(check bool) "regenerated identical to original" true
        (Trace_io.roundtrip_equal original regenerated);
      Alcotest.(check bool) "entry republished" true (Sys.file_exists entry))

let test_metrics_corrupt_is_miss () =
  with_root (fun root ->
      let cache = Artifact_cache.create ~root () in
      let runs = Runs.create ~length:1_500 ~cache () in
      let m = Runs.metrics runs ~scheme:"baseline" mcf in
      ignore m;
      let runs_dir = Filename.concat root "runs" in
      let entry =
        match Sys.readdir runs_dir with
        | [| name |] -> Filename.concat runs_dir name
        | a -> Alcotest.failf "expected 1 run entry, found %d" (Array.length a)
      in
      let oc = open_out_bin entry in
      output_string oc "{ not json";
      close_out oc;
      Alcotest.(check bool) "corrupt metrics read as a miss" true
        (Artifact_cache.find_metrics cache ~scheme:"baseline" ~profile:mcf
           ~length:1_500
        = None);
      Alcotest.(check bool) "corrupt metrics deleted" false
        (Sys.file_exists entry))

(* A run entry whose "counters" object the counter table does not
   describe must self-heal, even when it would re-serialize to its own
   bytes: an undeclared key (sorted last, so the old hashtable decoder
   round-tripped it), a missing always-present key, a duplicate key. *)
let test_doctored_counters_heal () =
  (* add a member at the end of the "counters" object, the entry's last *)
  let append member s =
    let n = String.length s in
    if n < 2 || String.sub s (n - 2) 2 <> "}}" then
      Alcotest.fail "run entry does not end in its counters object";
    String.sub s 0 (n - 2) ^ "," ^ member ^ "}}"
  in
  (* the span [i, j) of the member "tick":N in [s] *)
  let tick_span s =
    let key = "\"tick\":" in
    let i = ref 0 in
    while String.sub s !i (String.length key) <> key do incr i done;
    let j = ref (!i + String.length key) in
    while s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
    (!i, !j)
  in
  List.iter
    (fun (what, doctor) ->
      with_root (fun root ->
          let cache = Artifact_cache.create ~root () in
          let runs = Runs.create ~length:1_500 ~cache () in
          ignore (Runs.metrics runs ~scheme:"baseline" mcf);
          let runs_dir = Filename.concat root "runs" in
          let entry = Filename.concat runs_dir (Sys.readdir runs_dir).(0) in
          let data = In_channel.with_open_bin entry In_channel.input_all in
          Out_channel.with_open_bin entry (fun oc ->
              output_string oc (doctor data));
          let before = Artifact_cache.counts cache in
          Alcotest.(check bool) (what ^ ": read as a miss") true
            (Artifact_cache.find_metrics cache ~scheme:"baseline" ~profile:mcf
               ~length:1_500
            = None);
          let after = Artifact_cache.counts cache in
          Alcotest.(check int) (what ^ ": one self-heal")
            (before.Artifact_cache.run_heals + 1) after.Artifact_cache.run_heals;
          Alcotest.(check bool) (what ^ ": entry deleted") false
            (Sys.file_exists entry)))
    [ ("undeclared counter", append "\"zz_extra\":5");
      ( "missing always-present counter",
        fun s ->
          (* drop the member and the comma before it *)
          let i, j = tick_span s in
          String.sub s 0 (i - 1) ^ String.sub s j (String.length s - j) );
      ( "duplicate counter",
        fun s ->
          let i, j = tick_span s in
          append (String.sub s i (j - i)) s ) ]

let test_unknown_scheme_raises_warm () =
  with_root (fun root ->
      let make () =
        Runs.create ~length:1_000 ~cache:(Artifact_cache.create ~root ()) ()
      in
      Runs.ensure (make ()) [ ("baseline", mcf) ];
      (* warm instance: the cache could satisfy everything, but a bogus
         scheme must still fail exactly as it does cold *)
      match Runs.ensure (make ()) [ ("nonsense", mcf) ] with
      | () -> Alcotest.fail "expected Not_found for unknown scheme"
      | exception Not_found -> ())

let test_verify_gc_and_hygiene () =
  with_root (fun root ->
      let cache = Artifact_cache.create ~root () in
      let runs = Runs.create ~length:1_500 ~cache () in
      Runs.ensure runs [ ("baseline", mcf); ("baseline", gzip) ];
      Alcotest.(check int) "clean cache verifies clean" 0
        (List.length (Artifact_cache.verify cache));
      (* no leftover temp files from the atomic publishes *)
      List.iter
        (fun sub ->
          let dir = Filename.concat root sub in
          Array.iter
            (fun name ->
              if
                Filename.check_suffix name ".hct"
                || Filename.check_suffix name ".json"
              then ()
              else Alcotest.failf "unexpected file %s/%s" sub name)
            (Sys.readdir dir))
        [ "traces"; "runs" ];
      let d = Artifact_cache.disk cache in
      Alcotest.(check int) "two traces on disk" 2
        d.Artifact_cache.trace_entries;
      Alcotest.(check int) "two runs on disk" 2 d.Artifact_cache.run_entries;
      (* corrupt one entry: verify flags it, verify ~fix deletes it *)
      let victim =
        Filename.concat (Filename.concat root "traces")
          (Sys.readdir (Filename.concat root "traces")).(0)
      in
      let oc = open_out_bin victim in
      output_string oc "HCTB\001garbage";
      close_out oc;
      Alcotest.(check int) "verify finds the corrupt entry" 1
        (List.length (Artifact_cache.verify cache));
      Alcotest.(check int) "verify --fix still reports it" 1
        (List.length (Artifact_cache.verify ~fix:true cache));
      Alcotest.(check bool) "fixed entry deleted" false
        (Sys.file_exists victim);
      Alcotest.(check int) "cache verifies clean again" 0
        (List.length (Artifact_cache.verify cache));
      (* gc to zero evicts everything *)
      let evicted = Artifact_cache.gc cache ~max_bytes:0 in
      Alcotest.(check bool) "gc evicted the rest" true
        (List.length evicted > 0);
      let d = Artifact_cache.disk cache in
      Alcotest.(check int) "empty after gc" 0
        (d.Artifact_cache.trace_entries + d.Artifact_cache.run_entries))

let suite =
  ( "artifact_cache",
    [
      Alcotest.test_case "warm reload bit-identical, skips simulation" `Quick
        test_warm_bit_identical;
      Alcotest.test_case "warm ensure 10x faster than cold" `Slow
        test_warm_speedup;
      Alcotest.test_case "corrupt trace entry self-heals" `Quick
        test_trace_self_heal;
      Alcotest.test_case "corrupt metrics entry is a miss" `Quick
        test_metrics_corrupt_is_miss;
      Alcotest.test_case "doctored counters entry self-heals" `Quick
        test_doctored_counters_heal;
      Alcotest.test_case "unknown scheme raises warm" `Quick
        test_unknown_scheme_raises_warm;
      Alcotest.test_case "verify, gc, publish hygiene" `Quick
        test_verify_gc_and_hygiene;
    ] )
