(* Trace and configuration verifier:

     hc_lint trace saved.trace [--benchmark gcc] [--bits 8]
     hc_lint seeds [--length 10000]
     hc_lint config
     hc_lint explain E111 [--readme-table]

   Every finding carries a stable code (E1xx trace structure incl. E108
   corrupt binary artifacts, E110/E111 analysis soundness, W201 mix
   drift, x2xx configuration incl. W203 bound monotonicity), a severity
   and a file:uop-id location; `hc_lint explain <CODE>` prints the full
   catalogue entry for any code. Exit status is 1 exactly when any
   Error-severity finding exists, so CI can gate on the lint the way it
   gates on the baseline diff; usage errors (unknown code, unreadable
   file) exit 3. *)

module Profile = Root.Hc_trace.Profile
module Trace_io = Root.Hc_trace.Trace_io
module Codec = Root.Hc_trace.Codec
module Config = Root.Hc_sim.Config
module Lint = Hc_analysis.Lint
module Artifact_cache = Hc_core.Artifact_cache

open Cmdliner

let print_diags diags = List.iter (fun d -> print_endline (Lint.to_string d)) diags

let summarize label diags =
  Printf.printf "%s: %d error%s, %d warning%s\n" label
    (Lint.count Lint.Error diags)
    (if Lint.count Lint.Error diags = 1 then "" else "s")
    (Lint.count Lint.Warning diags)
    (if Lint.count Lint.Warning diags = 1 then "" else "s")

let finish all =
  if List.exists Lint.has_errors all then exit 1
  else print_endline "lint clean"

let bits_arg =
  Arg.(
    value & opt int 8
    & info [ "bits" ] ~docv:"N"
        ~doc:
          "Narrowness threshold for the static-analysis soundness gate \
           (default 8, the paper's helper datapath width).")

(* ---- trace: lint saved trace files ---- *)

let trace_cmd =
  let run files benchmark bits =
    if files = [] then Cli.die "hc_lint trace: give at least one trace file";
    let expected_profile =
      Option.map
        (fun name ->
          try Profile.find_spec_int name
          with Not_found -> Cli.die "hc_lint trace: unknown benchmark %S" name)
        benchmark
    in
    let all =
      List.map
        (fun path ->
          let file = Filename.basename path in
          match Trace_io.load path with
          | tr ->
            let diags = Lint.check_trace ~file ?expected_profile ~bits tr in
            print_diags diags;
            summarize path diags;
            diags
          (* a corrupt binary artifact is a finding (E108), not a usage
             error: report it through the normal diagnostic stream so the
             gate exits 1 and keeps linting the remaining files *)
          | exception Codec.Corrupt reason ->
            let diags = [ Lint.corrupt_artifact ~file reason ] in
            print_diags diags;
            summarize path diags;
            diags
          | exception Failure msg -> Cli.die "hc_lint trace: %s: %s" path msg
          | exception Sys_error msg -> Cli.die "hc_lint trace: %s" msg)
        files
    in
    finish all
  in
  let files = Arg.(value & pos_all string [] & info [] ~docv:"TRACE") in
  let benchmark =
    Arg.(
      value
      & opt (some string) None
      & info [ "benchmark" ] ~docv:"NAME"
          ~doc:
            "SPEC profile the traces were generated from; adds the \
             realized-mix drift check (W201).")
  in
  let doc = "verify saved trace files (structure, semantics, soundness)" in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ files $ benchmark $ bits_arg)

(* ---- seeds: lint every generated seed workload ---- *)

let seeds_cmd =
  let run obs_t cache length bits =
    let all =
      List.map
        (fun (p : Profile.t) ->
          let tr = Artifact_cache.trace_or_generate cache ~profile:p ~length in
          let diags =
            Lint.check_trace ~file:p.Profile.name ~expected_profile:p ~bits tr
          in
          print_diags diags;
          summarize p.Profile.name diags;
          diags)
        Profile.spec_int
    in
    Hc_core.Obs_setup.finish obs_t;
    finish all
  in
  let doc =
    "generate and verify all 12 SPEC seed workloads (incl. mix drift and \
     the static-analysis soundness gate)"
  in
  Cmd.v (Cmd.info "seeds" ~doc)
    Term.(
      const run $ Cli.obs $ Cli.cache_dir $ Cli.length ~default:30_000
      $ bits_arg)

(* ---- config: lint the built-in machine configurations ---- *)

let config_cmd =
  let run () =
    let named =
      [ ("default", Config.default); ("baseline", Config.baseline);
        ("ics05", Config.ics05) ]
      @ List.map
          (fun (name, scheme) ->
            ("scheme:" ^ name, Config.with_scheme Config.default scheme))
          (("monolithic", Config.monolithic) :: Config.scheme_stack)
    in
    let all =
      List.map
        (fun (name, cfg) ->
          let diags = Lint.check_config ~file:name cfg in
          print_diags diags;
          summarize name diags;
          diags)
        named
    in
    finish all
  in
  let doc = "validate the built-in configurations and scheme stack" in
  Cmd.v (Cmd.info "config" ~doc) Term.(const run $ const ())

(* ---- explain: the diagnostic catalogue ---- *)

let print_info (i : Lint.info) =
  Printf.printf "%s (%s)\n  %s\n\n%s\n\nexample:\n  %s\n" i.Lint.i_code
    (Lint.severity_to_string i.Lint.i_severity)
    i.Lint.i_summary i.Lint.i_detail i.Lint.i_example

let explain_cmd =
  let run codes readme_table =
    if readme_table then begin
      if codes <> [] then
        Cli.die "hc_lint explain: --readme-table takes no code arguments";
      print_string (Lint.readme_table ())
    end
    else begin
      if codes = [] then
        Cli.die "hc_lint explain: give at least one diagnostic code (e.g. E111)";
      List.iteri
        (fun n code ->
          match Lint.explain code with
          | Some i ->
            if n > 0 then print_newline ();
            print_info i
          | None -> Cli.die "hc_lint explain: unknown diagnostic code %S" code)
        codes
    end
  in
  let codes = Arg.(value & pos_all string [] & info [] ~docv:"CODE") in
  let readme_table =
    Arg.(
      value & flag
      & info [ "readme-table" ]
          ~doc:
            "Print the catalogue as the README's markdown lint table \
             instead of explaining individual codes.")
  in
  let doc =
    "describe a diagnostic code (severity, meaning, example finding)"
  in
  Cmd.v (Cmd.info "explain" ~doc) Term.(const run $ codes $ readme_table)

let () =
  let doc = "verify helper-cluster traces and configurations" in
  let info = Cmd.info "hc_lint" ~doc in
  exit
    (Cmd.eval (Cmd.group info [ trace_cmd; seeds_cmd; config_cmd; explain_cmd ]))
