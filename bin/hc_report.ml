(* Artifact readback and cross-run comparison:

     hc_report report runs/*/metrics.json --intervals intervals.csv
     hc_report attrib m_888.json m_cr.json m_ir.json
     hc_report diff m_base.json m_new.json --tol counters.=0.01
     hc_report diff --all before.prom after.prom   # registry dumps
     hc_report baseline smoke.json        # vs baselines/gcc_smoke.json
     hc_report validate --jsonl spans.jsonl

   Everything is read from disk through lib/report's dependency-free
   JSON/CSV loaders and Hc_obs.Prom's exposition parser — this binary
   never runs a simulation. diff/baseline exit 1 on any regression and 2
   on baseline metrics missing from the candidate, so CI can gate on the
   result. *)

module Json = Root.Hc_report.Json
module Loader = Root.Hc_report.Loader
module Diff = Root.Hc_report.Diff
module Render = Root.Hc_report.Render
module Prom = Hc_obs.Prom

open Cmdliner

let load_or_die path =
  match Loader.load_json path with
  | Ok j -> j
  | Error e -> Cli.die "hc_report: %s" e

(* A registry dump as one flat object, series key -> value; %.17g reads
   back as the exact float, so Diff compares dumps like metrics files. *)
let load_prom_or_die path =
  match Prom.of_file path with
  | Ok entries ->
    Json.Object
      (List.map
         (fun (e : Prom.entry) ->
           ( Prom.series_key e,
             Json.Number (Printf.sprintf "%.17g" e.Prom.e_value) ))
         entries)
  | Error e -> Cli.die "hc_report: %s" e

let load_runs paths =
  List.map (fun p -> (p, load_or_die p)) paths

let warn_ring path j =
  match Loader.ring_info j with
  | Some (pushed, dropped) when dropped > 0 ->
    Printf.printf
      "WARNING: %s: event ring overflowed — %d of %d events dropped, the \
       trace is a truncated window (raise --trace-buffer to keep more)\n"
      path dropped pushed
  | Some (pushed, _) ->
    Printf.printf "%s: complete trace (%d events, no ring drops)\n" path pushed
  | None -> ()

(* ---- report ---- *)

let report_cmd =
  let run files intervals trace width =
    if files = [] && intervals = None && trace = None then
      Cli.die "hc_report report: nothing to read (give metrics files, \
           --intervals or --trace)";
    let runs = load_runs files in
    List.iter
      (fun (path, j) ->
        match Loader.schema j with
        | Some s when s >= 2 -> ()
        | Some s ->
          Printf.printf "note: %s is schema %d (no attribution columns)\n"
            path s
        | None -> Printf.printf "note: %s has no schema field\n" path)
      runs;
    if runs <> [] then begin
      print_string (Render.summary_table runs);
      print_newline ();
      print_string (Render.attrib_table runs);
      print_newline ();
      List.iter
        (fun (path, j) ->
          if not (Render.attrib_consistent j) then
            Printf.printf
              "WARNING: %s: attribution columns do not sum to the steering \
               totals\n"
              path)
        runs
    end;
    ( match intervals with
    | None -> ()
    | Some path -> (
      match Loader.load_csv path with
      | Ok csv ->
        print_string (Render.timeline ~width csv);
        print_newline ()
      | Error e -> Cli.die "hc_report: %s" e ) );
    match trace with
    | None -> ()
    | Some path -> warn_ring path (load_or_die path)
  in
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"METRICS.json")
  in
  let intervals =
    Arg.(
      value
      & opt (some string) None
      & info [ "intervals" ] ~docv:"CSV"
          ~doc:"Interval CSV to render as sparkline phase timelines.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"JSON"
          ~doc:
            "Chrome trace to inspect for ring-buffer drops (warns when the \
             trace is a truncated window).")
  in
  let width =
    Arg.(
      value & opt int 60
      & info [ "width" ] ~docv:"CHARS" ~doc:"Sparkline width.")
  in
  let doc = "summarise run artifacts: metrics tables, phase timelines" in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ files $ intervals $ trace $ width)

(* ---- attrib ---- *)

let attrib_cmd =
  let run files =
    if files = [] then Cli.die "hc_report attrib: give at least one metrics file";
    let runs = load_runs files in
    print_string (Render.attrib_table runs);
    print_newline ();
    (* advisory: predictor steering past the provable bound is where the
       width-violation recoveries live — not an invariant failure *)
    List.iter
      (fun (path, j) ->
        if Render.over_static_bound j then
          Printf.printf
            "WARNING: %s: predicted 8-8-8 steering exceeds the tightest \
             static provable bound — the excess is speculative and exposed \
             to width-violation recoveries\n"
            path)
      runs;
    let bad =
      List.filter (fun (_, j) -> not (Render.attrib_consistent j)) runs
    in
    List.iter
      (fun (path, _) ->
        Printf.printf
          "FAIL: %s: attribution columns do not sum to the steering totals\n"
          path)
      bad;
    if bad <> [] then exit 1;
    print_endline "attribution sums consistent"
  in
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"METRICS.json")
  in
  let doc = "steering-attribution breakdown (and its sum invariant)" in
  Cmd.v (Cmd.info "attrib" ~doc) Term.(const run $ files)

(* ---- topdown ---- *)

let topdown_cmd =
  let run files intervals width =
    if files = [] then
      Cli.die "hc_report topdown: give at least one schema-4 metrics file \
           (hc_sim --topdown --metrics-out)";
    let runs = load_runs files in
    List.iter
      (fun (path, j) ->
        match Json.member "stall" j with
        | Some _ -> ()
        | None ->
          Cli.die "hc_report topdown: %s has no stall object (run hc_sim with \
               --topdown, or the file predates schema 4)"
            path)
      runs;
    List.iter
      (fun (path, j) ->
        Printf.printf "%s (%s)\n" path (Render.run_label j);
        print_string (Render.topdown_table j);
        print_newline ())
      runs;
    ( match runs with
    | [ base; cand ] ->
      print_endline "share deltas (base -> new, percentage points):";
      print_string
        (Render.topdown_delta_table
           ~base:(Render.run_label (snd base), snd base)
           ~cand:(Render.run_label (snd cand), snd cand));
      print_newline ()
    | _ -> () );
    ( match intervals with
    | None -> ()
    | Some path -> (
      match Loader.load_csv path with
      | Ok csv ->
        print_string
          (Render.timeline ~width ~columns:Render.stall_timeline_columns csv);
        print_newline ()
      | Error e -> Cli.die "hc_report: %s" e ) );
    (* the partition invariant is the CI gate: slots must sum to exactly
       width x rounds per lane — any tolerance would let a leak hide *)
    let bad =
      List.filter (fun (_, j) -> not (Render.topdown_consistent j)) runs
    in
    List.iter
      (fun (path, _) ->
        Printf.printf
          "FAIL: %s: stall categories do not sum to lane slots (partition \
           invariant violated)\n"
          path)
      bad;
    if bad <> [] then exit 1;
    print_endline "topdown partition exact (sum(categories) == width x rounds)"
  in
  let files =
    Arg.(value & pos_all string [] & info [] ~docv:"METRICS.json")
  in
  let intervals =
    Arg.(
      value
      & opt (some string) None
      & info [ "intervals" ] ~docv:"CSV"
          ~doc:
            "Stall-interval CSV (hc_sim --stall-out) to render as sparkline \
             timelines.")
  in
  let width =
    Arg.(
      value & opt int 60
      & info [ "width" ] ~docv:"CHARS" ~doc:"Sparkline width.")
  in
  let doc =
    "top-down stall attribution tables (exit 1 if the slot partition is \
     not exact); two files add a policy-vs-policy delta view"
  in
  Cmd.v (Cmd.info "topdown" ~doc)
    Term.(const run $ files $ intervals $ width)

(* ---- spans ---- *)

(* Read a --span-log JSONL file back through the strict parser: every
   line must be one well-formed object with the span-record shape, so
   this doubles as a validator for the structured event log. *)
let spans_cmd =
  let run path =
    let ic =
      try open_in path with Sys_error e -> Cli.die "hc_report spans: %s" e
    in
    let lines = ref [] in
    ( try
        while true do
          lines := input_line ic :: !lines
        done
      with End_of_file -> close_in ic );
    let rows =
      List.mapi
        (fun i line ->
          let lineno = i + 1 in
          match Json.parse line with
          | Error at ->
            Cli.die "hc_report spans: %s:%d: malformed JSON at byte %d" path
              lineno at
          | Ok j ->
            let str key =
              match Option.bind (Json.member key j) Json.string_value with
              | Some s -> s
              | None ->
                Cli.die "hc_report spans: %s:%d: missing string field %S" path
                  lineno key
            in
            let num key =
              match Option.bind (Json.member key j) Json.number with
              | Some n -> n
              | None ->
                Cli.die "hc_report spans: %s:%d: missing numeric field %S" path
                  lineno key
            in
            if num "schema" <> 1. then
              Cli.die "hc_report spans: %s:%d: unsupported schema" path lineno;
            if str "kind" <> "span" then
              Cli.die "hc_report spans: %s:%d: not a span record" path lineno;
            (str "name", str "track", num "dur_ns", num "gc_minor_words"))
        (List.rev !lines)
    in
    if rows = [] then Cli.die "hc_report spans: %s is empty" path;
    (* aggregate by stage name *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (name, _, dur, minor) ->
        let c, total, mx, mw =
          Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0., 0., 0.)
        in
        Hashtbl.replace tbl name (c + 1, total +. dur, Float.max mx dur, mw +. minor))
      rows;
    let stages =
      List.sort compare
        (Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [])
    in
    Printf.printf "%s: %d spans, %d stages\n" path (List.length rows)
      (List.length stages);
    Printf.printf "%-18s %7s %12s %12s %14s\n" "stage" "count" "total ms"
      "max ms" "minor kwords";
    List.iter
      (fun (name, (c, total, mx, mw)) ->
        Printf.printf "%-18s %7d %12.2f %12.2f %14.0f\n" name c (total /. 1e6)
          (mx /. 1e6) (mw /. 1e3))
      stages
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SPANS.jsonl")
  in
  let doc =
    "read a --span-log JSONL file (strict parse of every line) and print \
     the per-stage aggregate"
  in
  Cmd.v (Cmd.info "spans" ~doc) Term.(const run $ path)

(* ---- diff / baseline ---- *)

let tol_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      let key = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      ( match float_of_string_opt v with
      | Some tol when tol >= 0. -> Ok (key, tol)
      | _ -> Error (`Msg (Printf.sprintf "bad tolerance %S" v)) )
    | None -> Error (`Msg (Printf.sprintf "expected KEY=TOL, got %S" s))
  in
  let print ppf (k, v) = Format.fprintf ppf "%s=%g" k v in
  Arg.conv (parse, print)

let tols_arg =
  Arg.(
    value
    & opt_all tol_conv []
    & info [ "tol" ] ~docv:"KEY=REL"
        ~doc:
          "Relative tolerance for a metric or metric prefix (repeatable; \
           longest prefix wins; $(b,default=X) sets the catch-all). \
           E.g. $(b,--tol counters.=0.01).")

let default_tol_arg =
  Arg.(
    value & opt float 0.
    & info [ "default-tol" ] ~docv:"REL"
        ~doc:
          "Catch-all relative tolerance (default 0: the simulator is \
           deterministic, so exact match is the expectation).")

let all_arg =
  Arg.(
    value & flag
    & info [ "all" ] ~doc:"List every compared metric, not just failures.")

let run_diff ~base_path ~cand_path tols default_tol all =
  let is_prom path = Filename.check_suffix path ".prom" in
  let load =
    match (is_prom base_path, is_prom cand_path) with
    | true, true -> load_prom_or_die
    | false, false -> load_or_die
    | prom_base, _ ->
      Cli.die "hc_report: %s: a registry dump (.prom) diffs only against \
               another dump"
        (if prom_base then base_path else cand_path)
  in
  let base = load base_path in
  let cand = load cand_path in
  let r = Diff.run ~tols ~default_tol ~base ~cand () in
  Printf.printf "base: %s\nnew:  %s\n" base_path cand_path;
  print_string (Render.diff_table ~all r);
  print_newline ();
  exit (Diff.exit_code r)

let diff_cmd =
  let run base cand tols default_tol all =
    run_diff ~base_path:base ~cand_path:cand tols default_tol all
  in
  let base =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE")
  in
  let cand =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW")
  in
  let doc =
    "compare two metrics JSON files, or two registry dumps (both ending in \
     .prom, one row per series); exit 1 on regression, 2 on missing \
     metrics, 3 on a malformed file or a dump paired with JSON"
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(const run $ base $ cand $ tols_arg $ default_tol_arg $ all_arg)

let baseline_cmd =
  let run cand baseline tols default_tol all =
    run_diff ~base_path:baseline ~cand_path:cand tols default_tol all
  in
  let cand =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NEW.json")
  in
  let baseline =
    Arg.(
      value
      & opt string "baselines/gcc_smoke.json"
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Committed baseline to gate against (refresh deliberately with \
             scripts/refresh_baseline.sh).")
  in
  let doc = "diff a run against the committed baseline (CI gate)" in
  Cmd.v (Cmd.info "baseline" ~doc)
    Term.(const run $ cand $ baseline $ tols_arg $ default_tol_arg $ all_arg)

(* ---- validate ---- *)

(* Strict well-formedness of telemetry artifacts on the readers the tools
   themselves use, so a truncated traceEvents array, a span-log line cut
   mid-object or an exposition sample with a bad metric name all fail. *)
let validate_cmd =
  let check mode s =
    match mode with
    | `Json -> (
      match Json.parse s with
      | Ok _ -> Ok (Printf.sprintf "valid JSON (%d bytes)" (String.length s))
      | Error at -> Error (Printf.sprintf "INVALID JSON at byte %d" at) )
    | `Jsonl ->
      (* exactly one object per line; a trailing newline is allowed *)
      let lines = String.split_on_char '\n' s in
      let lines =
        match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
      in
      let rec go n = function
        | [] when n = 0 -> Error "EMPTY JSONL stream"
        | [] -> Ok (Printf.sprintf "valid JSONL (%d records)" n)
        | line :: rest -> (
          match Json.parse line with
          | Ok (Json.Object _) when line.[0] = '{' -> go (n + 1) rest
          | Ok _ -> Error (Printf.sprintf "INVALID JSONL at line %d byte 0" (n + 1))
          | Error at ->
            Error (Printf.sprintf "INVALID JSONL at line %d byte %d" (n + 1) at) )
      in
      go 0 lines
    | `Prom -> (
      match Prom.parse s with
      | Ok [] -> Error "EMPTY exposition (no samples)"
      | Ok entries ->
        Ok (Printf.sprintf "valid exposition (%d samples)" (List.length entries))
      | Error msg -> Error ("INVALID exposition at " ^ msg) )
  in
  let run mode files =
    if files = [] then begin
      prerr_endline "usage: hc_report validate [--json|--jsonl|--prom] FILE...";
      exit 2
    end;
    let ok =
      List.fold_left
        (fun ok path ->
          match In_channel.with_open_bin path In_channel.input_all with
          | exception Sys_error e ->
            prerr_endline e;
            false
          | s -> (
            match check mode s with
            | Ok msg ->
              Printf.printf "%s: %s\n" path msg;
              ok
            | Error msg ->
              Printf.eprintf "%s: %s\n" path msg;
              false ))
        true files
    in
    if not ok then exit 1
  in
  let mode =
    Arg.(
      value
      & vflag `Json
          [ (`Json, info [ "json" ] ~doc:"Each FILE is one JSON value (default).");
            (`Jsonl, info [ "jsonl" ] ~doc:"Each FILE holds one JSON object per line.");
            ( `Prom,
              info [ "prom" ] ~doc:"Each FILE is a Prometheus text exposition." ) ])
  in
  let files = Arg.(value & pos_all string [] & info [] ~docv:"FILE") in
  let doc =
    "check telemetry artifacts are well formed; exit 1 naming the file and \
     byte offset or line of the first offence, 2 without files"
  in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ mode $ files)

let () =
  let doc = "read, summarise and diff helper-cluster run artifacts" in
  let info = Cmd.info "hc_report" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ report_cmd; attrib_cmd; topdown_cmd; spans_cmd;
            diff_cmd; baseline_cmd; validate_cmd ]))
