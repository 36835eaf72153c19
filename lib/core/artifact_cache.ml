module Profile = Hc_trace.Profile
module Trace = Hc_trace.Trace
module Codec = Hc_trace.Codec
module Generator = Hc_trace.Generator
module Metrics = Hc_sim.Metrics
module Counts = Hc_obs.Counts
module Json = Hc_report.Json

module Registry = Hc_obs.Registry
module Span = Hc_obs.Span

type t = {
  root : string;
  h_traces : int Atomic.t;
  m_traces : int Atomic.t;
  h_runs : int Atomic.t;
  m_runs : int Atomic.t;
  heal_traces : int Atomic.t;
  heal_runs : int Atomic.t;
}

(* Registry mirrors: every ad-hoc Atomic above has a registry twin,
   incremented at the same site, so a scrape reproduces the ground-truth
   counts exactly (asserted in test_registry.ml). One atomic load when
   observability is off. *)
let obs_count name ~kind ?(n = 1) () =
  Registry.with_ambient (fun r ->
      Registry.add
        (Registry.counter r ~labels:[ ("kind", kind) ]
           ~help:"Artifact-cache events by entry kind" name)
        n)

let obs_bytes name n =
  Registry.with_ambient (fun r ->
      Registry.add
        (Registry.counter r ~help:"Artifact-cache bytes moved" name)
        n)

(* bump to invalidate every existing entry at once, traces included
   (key-space version, in both key kinds);
   2: run entries carry the cycle-accounting [stall] object *)
let cache_version = 2

let metrics_schema = Metrics.schema

let default_root () =
  match Sys.getenv_opt "HC_CACHE_DIR" with
  | Some d when d <> "" -> d
  | Some _ | None -> "_hc_cache"

let create ?root () =
  {
    root = (match root with Some r -> r | None -> default_root ());
    h_traces = Atomic.make 0;
    m_traces = Atomic.make 0;
    h_runs = Atomic.make 0;
    m_runs = Atomic.make 0;
    heal_traces = Atomic.make 0;
    heal_runs = Atomic.make 0;
  }

let of_cli = function
  | Some "none" -> None
  | Some dir -> Some (create ~root:dir ())
  | None -> (
    match Sys.getenv_opt "HC_CACHE_DIR" with
    | Some "none" -> None
    | Some _ | None -> Some (create ()))

let root t = t.root

let traces_dir t = Filename.concat t.root "traces"

let runs_dir t = Filename.concat t.root "runs"

(* ----- keys and paths ----- *)

let digest s = Digest.to_hex (Digest.string s)

let trace_key ~(profile : Profile.t) ~length =
  digest
    (Printf.sprintf "trace|codec-v%d|cache-v%d|%s|len=%d|sliced"
       Codec.schema_version cache_version (Profile.fingerprint profile) length)

let run_key ~scheme ~(profile : Profile.t) ~length =
  digest
    (Printf.sprintf "run|metrics-v%d|codec-v%d|cache-v%d|scheme=%s|%s|len=%d"
       metrics_schema Codec.schema_version cache_version scheme
       (Profile.fingerprint profile) length)

let trace_path t ~profile ~length =
  Filename.concat (traces_dir t) (trace_key ~profile ~length ^ ".hct")

let run_path t ~scheme ~profile ~length =
  Filename.concat (runs_dir t) (run_key ~scheme ~profile ~length ^ ".json")

(* ----- raw file I/O ----- *)

let read_file path =
  match open_in_bin path with
  | ic ->
    Some
      (Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () -> really_input_string ic (in_channel_length ic)))
  | exception Sys_error _ -> None

let remove_quietly path = try Sys.remove path with Sys_error _ -> ()

let publish_seq = Atomic.make 0

(* Atomic publish: write a unique temp name in the destination directory
   (rename is only atomic within a filesystem) and rename over the final
   path. Concurrent writers of the same key both succeed; last rename
   wins with identical content. *)
let write_atomic ~path data =
  Telemetry.mkdir_p (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.tmp-%d-%d" path (Unix.getpid ())
      (Atomic.fetch_and_add publish_seq 1)
  in
  let oc = open_out_bin tmp in
  ( try
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc data)
    with e ->
      remove_quietly tmp;
      raise e );
  try Sys.rename tmp path
  with Sys_error _ as e ->
    remove_quietly tmp;
    raise e

(* ----- traces ----- *)

let find_trace t ~profile ~length =
  Span.with_span "cache-lookup"
    ~meta:[ ("kind", "trace"); ("name", profile.Profile.name) ]
    (fun () ->
      let path = trace_path t ~profile ~length in
      match read_file path with
      | None ->
        Atomic.incr t.m_traces;
        obs_count "hc_cache_misses_total" ~kind:"trace" ();
        None
      | Some data -> (
        obs_bytes "hc_cache_read_bytes_total" (String.length data);
        match Codec.decode ~profile data with
        | tr ->
          Atomic.incr t.h_traces;
          obs_count "hc_cache_hits_total" ~kind:"trace" ();
          Some tr
        | exception (Codec.Corrupt _ | Failure _ | Invalid_argument _) ->
          (* self-heal: drop the bad entry so the caller's regeneration
             republishes a good one *)
          remove_quietly path;
          Atomic.incr t.m_traces;
          Atomic.incr t.heal_traces;
          obs_count "hc_cache_misses_total" ~kind:"trace" ();
          obs_count "hc_cache_self_heals_total" ~kind:"trace" ();
          None))

let store_trace t ~profile ~length tr =
  let data = Codec.encode tr in
  obs_count "hc_cache_stores_total" ~kind:"trace" ();
  obs_bytes "hc_cache_written_bytes_total" (String.length data);
  write_atomic ~path:(trace_path t ~profile ~length) data

let generate profile ~length =
  Span.with_span "generate"
    ~meta:[ ("benchmark", profile.Profile.name) ]
    (fun () -> Generator.generate_sliced ~length profile)

let trace_or_generate cache ~profile ~length =
  match cache with
  | None -> generate profile ~length
  | Some t -> (
    match find_trace t ~profile ~length with
    | Some tr -> tr
    | None ->
      let tr = generate profile ~length in
      store_trace t ~profile ~length tr;
      tr)

(* ----- run metrics ----- *)

(* Rebuild a Metrics.t from its schema-5 JSON by walking the counter
   table. Every stored count is an int (the floats in the file — cycles,
   ipc — and the top-level ticks and issued_total are derived from the
   table's slots), so the reconstruction is exact; the caller
   double-checks by re-serializing. *)

(* The "stall" object: the lane widths, and per lane one member per
   declared stall row, filled into [counts]. *)
let stall_of_json counts j =
  let int_in o name =
    match Json.member name o with
    | Some (Json.Number raw) -> int_of_string raw
    | Some _ | None -> failwith ("metrics JSON: bad stall field " ^ name)
  in
  List.iteri
    (fun lane lane_name ->
      let o =
        match Json.member lane_name j with
        | Some (Json.Object _ as o) -> o
        | Some _ | None -> failwith ("metrics JSON: bad stall lane " ^ lane_name)
      in
      List.iteri
        (fun k col -> counts.(Counts.stall ~lane k) <- int_in o col)
        Counts.stall_columns)
    Counts.stall_lanes;
  { Hc_sim.Accounting.issue_width = int_in j "issue_width";
    commit_width = int_in j "commit_width" }

let metrics_of_json j =
  let int name =
    match Json.member name j with
    | Some (Json.Number raw) -> int_of_string raw
    | Some _ | None -> failwith ("metrics JSON: missing int field " ^ name)
  in
  let str name =
    match Option.bind (Json.member name j) Json.string_value with
    | Some s -> s
    | None -> failwith ("metrics JSON: missing string field " ^ name)
  in
  if int "schema" <> metrics_schema then failwith "metrics JSON: wrong schema";
  let counts = Counts.make () in
  List.iter (fun id -> counts.(id) <- int (Counts.key id)) Counts.results;
  (* the "counters" object holds exactly the activity entries: every
     always-present one, each at most once, and nothing undeclared *)
  let seen = Array.make Counts.n false in
  ( match Json.member "counters" j with
  | Some (Json.Object members) ->
    List.iter
      (fun (name, v) ->
        let name = Json.unescape name in
        match (Counts.find Counts.Activity name, v) with
        | None, _ -> failwith ("metrics JSON: unknown counter " ^ name)
        | Some id, _ when seen.(id) ->
          failwith ("metrics JSON: duplicate counter " ^ name)
        | Some id, Json.Number raw ->
          seen.(id) <- true;
          counts.(id) <- int_of_string raw
        | Some _, _ -> failwith "metrics JSON: non-numeric counter")
      members
  | Some _ | None -> failwith "metrics JSON: missing counters" );
  List.iter
    (fun id ->
      if (not seen.(id)) && Counts.table.(id).Counts.presence = Counts.Always then
        failwith ("metrics JSON: missing counter " ^ Counts.key id))
    Counts.activity;
  let bound name =
    match Json.member name j with
    | Some (Json.Number raw) -> Some (int_of_string raw)
    | Some _ -> failwith ("metrics JSON: bad " ^ name)
    | None -> None
  in
  {
    (Metrics.of_counts ~name:(str "name") ~scheme_name:(str "scheme")
       ?stall:
         (match Json.member "stall" j with
         | Some (Json.Object _ as o) -> Some (stall_of_json counts o)
         | Some _ -> failwith "metrics JSON: bad stall"
         | None -> None)
       counts)
    with
    Metrics.static_narrow_bound = bound "static_narrow_bound";
    static_bidir_bound = bound "static_bidir_bound";
  }

let decode_metrics data =
  let j = Json.parse_exn data in
  let m = metrics_of_json j in
  (* bit-identical warm reads: the decoded record must re-serialize to
     exactly the stored bytes, or the entry is treated as corrupt *)
  if Metrics.to_json m <> data then failwith "metrics JSON: lossy round-trip";
  m

let find_metrics t ~scheme ~profile ~length =
  Span.with_span "cache-lookup"
    ~meta:
      [ ("kind", "run"); ("name", profile.Profile.name); ("scheme", scheme) ]
    (fun () ->
      let path = run_path t ~scheme ~profile ~length in
      match read_file path with
      | None ->
        Atomic.incr t.m_runs;
        obs_count "hc_cache_misses_total" ~kind:"run" ();
        None
      | Some data -> (
        obs_bytes "hc_cache_read_bytes_total" (String.length data);
        match decode_metrics data with
        | m ->
          Atomic.incr t.h_runs;
          obs_count "hc_cache_hits_total" ~kind:"run" ();
          Some m
        | exception Failure _ ->
          remove_quietly path;
          Atomic.incr t.m_runs;
          Atomic.incr t.heal_runs;
          obs_count "hc_cache_misses_total" ~kind:"run" ();
          obs_count "hc_cache_self_heals_total" ~kind:"run" ();
          None))

let store_metrics t ~scheme ~profile ~length m =
  let data = Metrics.to_json m in
  obs_count "hc_cache_stores_total" ~kind:"run" ();
  obs_bytes "hc_cache_written_bytes_total" (String.length data);
  write_atomic ~path:(run_path t ~scheme ~profile ~length) data

(* ----- inspection, verification, eviction ----- *)

type counts = {
  trace_hits : int;
  trace_misses : int;
  run_hits : int;
  run_misses : int;
  trace_heals : int;
  run_heals : int;
}

let counts t =
  {
    trace_hits = Atomic.get t.h_traces;
    trace_misses = Atomic.get t.m_traces;
    run_hits = Atomic.get t.h_runs;
    run_misses = Atomic.get t.m_runs;
    trace_heals = Atomic.get t.heal_traces;
    run_heals = Atomic.get t.heal_runs;
  }

type entry = { e_path : string; e_trace : bool; e_bytes : int; e_mtime : float }

let scan_dir ~trace dir =
  match Sys.readdir dir with
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           let want_ext = if trace then ".hct" else ".json" in
           if Filename.check_suffix name want_ext then
             let path = Filename.concat dir name in
             match Unix.stat path with
             | { Unix.st_size; st_mtime; st_kind = Unix.S_REG; _ } ->
               Some
                 { e_path = path; e_trace = trace; e_bytes = st_size;
                   e_mtime = st_mtime }
             | _ | (exception Unix.Unix_error _) -> None
           else None)
  | exception Sys_error _ -> []

let entries t =
  scan_dir ~trace:true (traces_dir t) @ scan_dir ~trace:false (runs_dir t)

type disk = {
  trace_entries : int;
  trace_bytes : int;
  run_entries : int;
  run_bytes : int;
}

let disk t =
  List.fold_left
    (fun acc e ->
      if e.e_trace then
        { acc with
          trace_entries = acc.trace_entries + 1;
          trace_bytes = acc.trace_bytes + e.e_bytes }
      else
        { acc with
          run_entries = acc.run_entries + 1;
          run_bytes = acc.run_bytes + e.e_bytes })
    { trace_entries = 0; trace_bytes = 0; run_entries = 0; run_bytes = 0 }
    (entries t)

type bad = { path : string; reason : string }

let verify ?(fix = false) t =
  let check e =
    match read_file e.e_path with
    | None -> Some { path = e.e_path; reason = "unreadable" }
    | Some data -> (
      if e.e_trace then
        match Codec.decode data with
        | (_ : Trace.t) -> None
        | exception Codec.Corrupt msg -> Some { path = e.e_path; reason = msg }
        | exception (Failure msg | Invalid_argument msg) ->
          Some { path = e.e_path; reason = msg }
      else
        match decode_metrics data with
        | (_ : Metrics.t) -> None
        | exception Failure msg -> Some { path = e.e_path; reason = msg })
  in
  let bad = List.filter_map check (entries t) in
  if fix then List.iter (fun b -> remove_quietly b.path) bad;
  bad

let gc t ~max_bytes =
  let es =
    List.sort (fun a b -> compare a.e_mtime b.e_mtime) (entries t)
  in
  let total = List.fold_left (fun acc e -> acc + e.e_bytes) 0 es in
  let excess = ref (total - max_bytes) in
  let freed =
    List.filter_map
      (fun e ->
        if !excess > 0 then begin
          excess := !excess - e.e_bytes;
          remove_quietly e.e_path;
          Some e
        end
        else None)
      es
  in
  (* gc churn lands in the same scrape as hits/misses: freed entries and
     bytes, by entry kind *)
  List.iter
    (fun e ->
      let kind = if e.e_trace then "trace" else "run" in
      obs_count "hc_cache_gc_freed_entries_total" ~kind ();
      Registry.with_ambient (fun r ->
          Registry.add
            (Registry.counter r
               ~labels:[ ("kind", kind) ]
               ~help:"Artifact-cache bytes freed by gc eviction"
               "hc_cache_gc_freed_bytes_total")
            e.e_bytes))
    freed;
  List.map (fun e -> e.e_path) freed
