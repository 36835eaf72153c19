(* Flags and helpers shared by the command-line front ends. Each flag is
   declared here once, so every tool that takes it spells, defaults and
   validates it the same way. *)

module Profile = Root.Hc_trace.Profile
module Trace_io = Root.Hc_trace.Trace_io
module Codec = Root.Hc_trace.Codec
module Artifact_cache = Hc_core.Artifact_cache
module Domain_pool = Hc_core.Domain_pool
module Obs_setup = Hc_core.Obs_setup

open Cmdliner

(* print one line to stderr and exit 3, the usage-error status *)
let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 3) fmt

(* A saved text or binary trace; an unreadable or malformed file is a
   one-line usage error, not an uncaught exception. [Sys_error]'s message
   already names the file. *)
let load_trace ~tool path =
  try Trace_io.load path with
  | Codec.Corrupt reason | Failure reason -> die "%s: %s: %s" tool path reason
  | Sys_error reason -> die "%s: %s" tool reason

let profile name =
  try Profile.find_spec_int name
  with Not_found ->
    Printf.eprintf "unknown benchmark %S; known: %s\n" name
      (String.concat ", " Profile.spec_int_names);
    exit 1

(* [None] when the flag is absent, so a caller can tell an explicit
   value from the default; the help still shows [default]. *)
let length_opt ~default =
  Arg.(
    value
    & opt (some ~none:(string_of_int default) int) None
    & info [ "length" ] ~docv:"UOPS" ~doc:"Trace length in uops per benchmark.")

let length ~default = Term.(const (Option.value ~default) $ length_opt ~default)

(* sizes the shared domain pool; a non-positive count exits 1 *)
let jobs =
  let set = function
    | Some n when n > 0 -> Domain_pool.set_jobs n
    | Some _ ->
      prerr_endline "--jobs expects a positive integer";
      exit 1
    | None -> ()
  in
  Term.(
    const set
    $ Arg.(
        value
        & opt (some int) None
        & info [ "j"; "jobs" ] ~docv:"N"
            ~doc:
              "Simulations to run concurrently (default: $(b,HC_JOBS) or \
               the recommended domain count). Results are bit-identical at \
               any setting."))

let cache_dir =
  Term.(
    const Artifact_cache.of_cli
    $ Arg.(
        value
        & opt (some string) None
        & info [ "cache-dir" ] ~docv:"DIR"
            ~doc:
              "Artifact-cache root: generated traces (and, in campaigns, \
               finished run metrics) reload from $(docv) and are published \
               there after a cold run, with bit-identical numbers \
               (default: $(b,HC_CACHE_DIR) or $(b,_hc_cache); $(b,none) \
               disables caching, which $(b,hc_cache) refuses)."))

let obs_flag =
  Arg.(
    value & flag
    & info [ "obs" ]
        ~doc:
          "Enable the process-wide observability layer (metrics registry + \
           stage-span collector); $(b,hc_sim) also prints the per-stage \
           aggregate to stderr on exit. Off, the untraced hot path is \
           bit-identical.")

(* the observability trio, set up as soon as the command line is read *)
let obs =
  let span_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "span-log" ] ~docv:"FILE"
          ~doc:
            "Write every recorded stage span as JSONL (one strict-JSON \
             object per line) to $(docv); implies observability on.")
  in
  let prom_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom-out" ] ~docv:"FILE"
          ~doc:
            "Write the final metrics-registry scrape as Prometheus text \
             exposition to $(docv); implies observability on.")
  in
  Term.(
    const (fun obs span_log prom_out ->
        Obs_setup.setup ~obs ?span_log ?prom_out ())
    $ obs_flag $ span_log $ prom_out)
