(* Artifact-cache maintenance:

     hc_cache stats                    entry counts and bytes on disk
     hc_cache verify [--fix]           decode every entry end to end
     hc_cache gc --max-mb 64           evict oldest-first to a size budget

   All subcommands take --cache-dir DIR (default: $HC_CACHE_DIR or
   _hc_cache). `verify` exits 1 when any entry fails its CRC / parse /
   byte-exact re-serialization check, so CI can gate on cache integrity
   the way it gates on the lint. *)

module Artifact_cache = Hc_core.Artifact_cache
module Registry = Hc_obs.Registry

open Cmdliner

(* the cache to operate on; [--cache-dir none] leaves nothing to inspect *)
let cache =
  Term.(
    const (function
      | Some c -> c
      | None -> Cli.die "hc_cache: cache disabled (--cache-dir none)")
    $ Cli.cache_dir)

let mb bytes = float_of_int bytes /. (1024. *. 1024.)

(* The machine-readable stats object: disk truth plus this process's
   registry-sourced operation counters (hits / misses / self-heals /
   bytes moved — zero in a bare `stats` call, populated when the same
   process has exercised the cache, as the tests do). *)
let stats_json c =
  let d = Artifact_cache.disk c in
  let samples = Registry.scrape (Registry.enable ()) in
  let kind k name = Registry.counter_value samples ~labels:[ ("kind", k) ] name in
  let both name = kind "trace" name + kind "run" name in
  Printf.sprintf
    "{\"schema\":2,\"root\":%S,\"disk\":{\"trace_entries\":%d,\
     \"trace_bytes\":%d,\"run_entries\":%d,\"run_bytes\":%d},\
     \"counters\":{\"hits\":%d,\"misses\":%d,\"self_heals\":%d,\
     \"stores\":%d,\"read_bytes\":%d,\"written_bytes\":%d,\
     \"gc_freed_entries\":%d,\"gc_freed_bytes\":%d}}"
    (Artifact_cache.root c) d.Artifact_cache.trace_entries
    d.Artifact_cache.trace_bytes d.Artifact_cache.run_entries
    d.Artifact_cache.run_bytes
    (both "hc_cache_hits_total")
    (both "hc_cache_misses_total")
    (both "hc_cache_self_heals_total")
    (both "hc_cache_stores_total")
    (Registry.counter_value samples "hc_cache_read_bytes_total")
    (Registry.counter_value samples "hc_cache_written_bytes_total")
    (both "hc_cache_gc_freed_entries_total")
    (both "hc_cache_gc_freed_bytes_total")

let stats_cmd =
  let run c json =
    if json then print_endline (stats_json c)
    else begin
      let d = Artifact_cache.disk c in
      Printf.printf "cache root: %s\n" (Artifact_cache.root c);
      Printf.printf "traces: %5d entries, %8.2f MiB\n"
        d.Artifact_cache.trace_entries (mb d.Artifact_cache.trace_bytes);
      Printf.printf "runs:   %5d entries, %8.2f MiB\n"
        d.Artifact_cache.run_entries (mb d.Artifact_cache.run_bytes);
      Printf.printf "total:  %5d entries, %8.2f MiB\n"
        (d.Artifact_cache.trace_entries + d.Artifact_cache.run_entries)
        (mb (d.Artifact_cache.trace_bytes + d.Artifact_cache.run_bytes))
    end
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one strict-JSON object (disk entry counts and bytes plus \
             the process's registry-sourced hit/miss/self-heal/byte \
             counters) instead of the human table.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"print entry counts and on-disk size")
    Term.(const run $ cache $ json)

let verify_cmd =
  let run c fix =
    let d = Artifact_cache.disk c in
    let total = d.Artifact_cache.trace_entries + d.Artifact_cache.run_entries in
    let bad = Artifact_cache.verify ~fix c in
    List.iter
      (fun (b : Artifact_cache.bad) ->
        Printf.printf "corrupt%s: %s (%s)\n"
          (if fix then " [deleted]" else "")
          b.Artifact_cache.path b.Artifact_cache.reason)
      bad;
    Printf.printf "verified %d entries under %s: %d corrupt\n" total
      (Artifact_cache.root c) (List.length bad);
    if bad <> [] then exit 1
  in
  let fix =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:
            "Delete every corrupt entry (the next cold run regenerates \
             it).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "decode every cache entry end to end (CRC + structural decode \
          for traces, parse + byte-exact re-serialization for run \
          metrics); exit 1 if any entry is corrupt")
    Term.(const run $ cache $ fix)

let gc_cmd =
  let run c max_mb =
    (* enable the registry first so the eviction counters record, then
       read the freed totals back from the same scrape stats --json uses *)
    let reg = Registry.enable () in
    let evicted =
      Artifact_cache.gc c ~max_bytes:(max_mb * 1024 * 1024)
    in
    List.iter (fun path -> Printf.printf "evicted: %s\n" path) evicted;
    let samples = Registry.scrape reg in
    let both name =
      Registry.counter_value samples ~labels:[ ("kind", "trace") ] name
      + Registry.counter_value samples ~labels:[ ("kind", "run") ] name
    in
    let d = Artifact_cache.disk c in
    Printf.printf "evicted %d entries (%.2f MiB freed); %s now holds %.2f MiB\n"
      (both "hc_cache_gc_freed_entries_total")
      (mb (both "hc_cache_gc_freed_bytes_total"))
      (Artifact_cache.root c)
      (mb (d.Artifact_cache.trace_bytes + d.Artifact_cache.run_bytes))
  in
  let max_mb =
    Arg.(
      value & opt int 256
      & info [ "max-mb" ] ~docv:"MIB"
          ~doc:"Size budget; oldest entries (mtime) are evicted first.")
  in
  Cmd.v
    (Cmd.info "gc" ~doc:"evict oldest entries until the cache fits a budget")
    Term.(const run $ cache $ max_mb)

let () =
  let doc = "inspect, verify and garbage-collect the artifact cache" in
  exit (Cmd.eval (Cmd.group (Cmd.info "hc_cache" ~doc) [ stats_cmd; verify_cmd; gc_cmd ]))
