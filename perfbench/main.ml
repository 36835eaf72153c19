(* The repository benchmark: four closed-loop workloads over the public
   entry points of the library, one process, one caller, the domain pool
   at one job.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   A run sets the workload up three times (setup_s is the median), then
   times passes — one sweep of the workload's cells each — until
   [--seconds] of pass time have elapsed, and reports medians. Every cell
   output is checked against a reference. With [--trace 1] up to three
   more passes run with spans around each layer call, and the per-layer
   metrics replace the end-to-end ones on the last line. See README.md in
   this directory. *)

module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Trace = Hc_trace.Trace
module Analysis = Hc_trace.Analysis
module Codec = Hc_trace.Codec
module Static = Hc_analysis.Static
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Runs = Hc_core.Runs
module Experiments = Hc_core.Experiments
module Artifact_cache = Hc_core.Artifact_cache
module Domain_pool = Hc_core.Domain_pool
module Summary = Hc_stats.Summary

let program_mark = Calib.mark ()

(* ----- input sizes ----- *)

let setup_repeats = 3
let sim_length = 10_000
let reload_length = 20_000
let ingest_length = 20_000
let paper_length = 30_000
let paper_warmup_length = 2_000

(* reload-sim and trace-ingest report cell percentiles; keep at least ten
   samples beyond p90 *)
let min_cell_samples = 100

(* the traced run's extra passes: enough for per-layer times per uop *)
let traced_passes = 3

(* ----- small helpers ----- *)

(* Linear-interpolation quantile (the usual "type 7"). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let mean xs = Summary.arithmetic_mean xs
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let md5 s = Digest.to_hex (Digest.string s)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Scratch cache roots live under the benchmark's own directory of the
   checkout and are removed at exit. *)
let scratch_dir =
  Filename.concat "perfbench" (Printf.sprintf "_tmp/%d" (Unix.getpid ()))

let fresh_root =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat scratch_dir (Printf.sprintf "%s-%d" tag !n)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* The workload seed perturbs each SPEC profile's own generator seed;
   seed 0 keeps the profiles' own seeds. *)
let seeded_profiles seed =
  List.map
    (fun (p : Profile.t) ->
      if seed = 0 then p
      else
        Profile.with_seed p
          (Int64.add p.Profile.seed
             (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)))
    Profile.spec_int

(* ----- cells: one operation, timed, exceptions counted as failures ----- *)

let cell_ms = ref []  (* host-normalized cell latencies of the untraced passes *)
let pass_cells = ref []  (* the current pass's cells: start and end marks *)
let attempted = ref 0
let failed = ref 0
let first_error = ref None

let cell name f =
  incr attempted;
  let m0 = Calib.mark () in
  let r =
    match Tracer.with_span name f with
    | v -> Some v
    | exception e ->
      if !first_error = None then
        first_error := Some (name ^ ": " ^ Printexc.to_string e);
      None
  in
  pass_cells := (m0, Calib.mark ()) :: !pass_cells;
  r

let fail_unless ok = if not ok then incr failed

(* ----- paper headlines ----- *)

(* A headline this workload's outputs determine: the label and paper value
   of an Experiments headline, with the same formula over the workload's
   simulated cells. [needs] are the schemes it reads. *)
type headline = {
  h_label : string;
  h_paper : float;
  h_needs : string list;
  h_value : (string -> Metrics.t list) -> float;
}

let speedups m scheme =
  List.map2 (fun b x -> Metrics.speedup_pct ~baseline:b x) (m "baseline") (m scheme)

let grid_headlines =
  let h h_label h_paper h_needs h_value = { h_label; h_paper; h_needs; h_value } in
  let avg f scheme m = mean (List.map f (m scheme)) in
  let speed scheme m = mean (speedups m scheme) in
  [
    h "avg width-prediction accuracy (%)" 93.5 [ "8_8_8" ]
      (avg Metrics.wpred_accuracy_pct "8_8_8");
    h "fatal mispredictions with confidence gate (%)" 0.83 [ "8_8_8" ]
      (avg Metrics.wpred_fatal_pct "8_8_8");
    h "avg 8_8_8 speedup (%)" 6.2 [ "baseline"; "8_8_8" ] (speed "8_8_8");
    h "instructions steered to helper (%)" 15.0 [ "8_8_8" ]
      (avg Metrics.steered_pct "8_8_8");
    h "copy instructions (%) [read from Fig 7]" 13.0 [ "8_8_8" ]
      (avg Metrics.copy_pct "8_8_8");
    h "+BR copy percentage (%)" 10.8 [ "+BR" ] (avg Metrics.copy_pct "+BR");
    h "+BR steered (%)" 19.5 [ "+BR" ] (avg Metrics.steered_pct "+BR");
    h "+BR speedup (%)" 9.0 [ "baseline"; "+BR" ] (speed "+BR");
    h "+LR copy percentage (%)" 6.4 [ "+LR" ] (avg Metrics.copy_pct "+LR");
    h "+CR speedup (%)" 14.5 [ "baseline"; "+CR" ] (speed "+CR");
    h "+CR steered (%)" 47.5 [ "+CR" ] (avg Metrics.steered_pct "+CR");
    h "+CR copies (%)" 15.7 [ "+CR" ] (avg Metrics.copy_pct "+CR");
    h "CP predictor accuracy (%)" 90.0 [ "+CP" ] (avg Metrics.cp_accuracy_pct "+CP");
    h "+CP copy percentage (%)" 21.4 [ "+CP" ] (avg Metrics.copy_pct "+CP");
    h "+CP speedup (%)" 16.7 [ "baseline"; "+CP" ] (speed "+CP");
    h "+IR speedup (%)" 22.1 [ "baseline"; "+IR" ] (speed "+IR");
    h "+IR steered (%)" 72.4 [ "+IR" ] (avg Metrics.steered_pct "+IR");
    h "w2n imbalance before IR (%)" 22.0 [ "+CP" ]
      (avg Metrics.imbalance_w2n_pct "+CP");
    h "w2n imbalance after IR (%)" 2.3 [ "+IR" ]
      (avg Metrics.imbalance_w2n_pct "+IR");
    h "ED2 improvement of +IR (%)" 5.1 [ "baseline"; "+IR" ] (fun m ->
        mean
          (List.map2
             (fun b x -> Hc_power.Model.ed2_improvement_pct ~baseline:b x)
             (m "baseline") (m "+IR")));
  ]

(* Mean |measured - paper| over the grid headlines the given schemes
   determine; returns (error, headline count). *)
let grid_error ~schemes m =
  let hs =
    List.filter (fun h -> List.for_all (fun s -> List.mem s schemes) h.h_needs)
      grid_headlines
  in
  (mean (List.map (fun h -> Float.abs (h.h_value m -. h.h_paper)) hs), List.length hs)

(* ----- per-layer metric catalogue ----- *)

let sim_schemes =
  [ ("baseline", "baseline"); ("8_8_8", "8_8_8"); ("+BR", "br"); ("+LR", "lr");
    ("+CR", "cr"); ("+CP", "cp"); ("+IR", "ir"); ("static_bidir", "static_bidir") ]

let experiment_ids = List.map (fun (e : Experiments.t) -> e.Experiments.id) Experiments.all

let per_layer_units =
  [ ("runs.ensure_traces_s", "s"); ("runs.static_info_s", "s"); ("runs.ensure_s", "s");
    ("runs.cells", "count") ]
  @ List.map (fun id -> ("exp." ^ id ^ "_s", "s")) experiment_ids
  @ [ ("unattributed_s", "s"); ("cache.trace_misses", "count");
      ("cache.run_misses", "count"); ("cache.bytes_written", "B");
      ("cache.store_trace_ns_per_uop", "ns/uop"); ("cache.bytes_per_uop", "B/uop");
      ("cache.find_trace_ns_per_uop", "ns/uop"); ("cache.trace_hits", "count");
      ("gen.ns_per_uop", "ns/uop"); ("analysis.bidir_ns_per_uop", "ns/uop");
      ("analysis.bidir_provable_pct", "%"); ("sim.first_run_ns_per_uop", "ns/uop");
      ("sim.warm_run_ns_per_uop", "ns/uop") ]
  @ List.map (fun (_, k) -> ("sim." ^ k ^ ".ns_per_uop", "ns/uop")) sim_schemes
  @ [ ("sim.ns_per_tick", "ns/tick"); ("gc.minor_words_per_uop", "words/uop");
      ("gc.major_collections", "count") ]
  @ List.concat_map
      (fun (_, k) ->
        [ ("model." ^ k ^ ".ipc", "uops/cycle");
          ("model." ^ k ^ ".copies_per_kuop", "1/kuop");
          ("model." ^ k ^ ".fatal_per_kuop", "1/kuop");
          ("model." ^ k ^ ".steered_pct", "%") ])
      sim_schemes
  @ [ ("trace.pass_s", "s"); ("trace.overhead_s", "s") ]

(* The modelled machine's statistics per scheme, averaged over profiles. *)
let model_metrics m =
  List.concat_map
    (fun (scheme, k) ->
      match m scheme with
      | [] -> []
      | ms ->
        let per_kuop f =
          1000. *. sumf (fun x -> float_of_int (f x)) ms
          /. sumf (fun x -> float_of_int x.Metrics.committed) ms
        in
        [ ("model." ^ k ^ ".ipc", mean (List.map Metrics.ipc ms));
          ("model." ^ k ^ ".copies_per_kuop", per_kuop (fun x -> x.Metrics.copies));
          ("model." ^ k ^ ".fatal_per_kuop", per_kuop (fun x -> x.Metrics.wpred_fatal));
          ("model." ^ k ^ ".steered_pct", mean (List.map Metrics.steered_pct ms)) ])
    sim_schemes

(* ----- the workload interface ----- *)

type outcome = {
  uops_per_pass : int;  (** input uops one pass processes *)
  digest : string;  (** over every metrics/output artifact of the workload *)
  err_pp : float;
  headlines : int;
  checks : (string * bool) list;  (** whole-run output checks *)
  model : (string * float) list;  (** the modelled machine's statistics per scheme *)
}

(* [setup] builds the inputs, fills caches and warms up; [sweep] is one
   timed pass over the cells and returns what [verify] checks outside
   the timed region; [finish] reports after the last pass. [layers]
   turns the traced passes' span totals into per-layer metrics. *)
type ('st, 'out) workload = {
  setup : unit -> 'st;
  sweep : 'st -> traced:bool -> 'out;
  verify : 'st -> 'out -> unit;
  finish : 'st -> outcome;
  layers : 'st -> passes:int -> (string * float) list;
}

(* ----- sim-steady: the simulator hot loop over a scheme x profile grid ----- *)

type sim_cell = {
  scheme : string;
  key : string;
  cfg : Config.t;
  decide : Pipeline.decide;
  trace : Trace.t;
}

type sim_state = {
  sim_cells : sim_cell array;
  sim_refs : Metrics.t array;
  sim_ref_json : string array;
}

let run_cell c = Pipeline.run ~cfg:c.cfg ~decide:c.decide ~scheme_name:c.scheme c.trace

(* The scheme x profile grid: traces generated, record views memoized
   and static proofs computed, so a run of a cell is only the simulator. *)
let sim_grid profiles =
  let traces =
    List.map (fun p -> Generator.generate_sliced ~length:sim_length p) profiles
  in
  List.iter (fun tr -> ignore (Trace.uops tr)) traces;
  let statics = List.map Static.analyze_bidir traces in
  Array.of_list
    (List.concat_map
       (fun (scheme, key) ->
         List.map2
           (fun trace static ->
             let cfg, decide = Runs.resolve_policy ~static ~scheme in
             { scheme; key; cfg; decide; trace })
           traces statics)
       sim_schemes)

let by_scheme cells refs scheme =
  List.filteri (fun i _ -> cells.(i).scheme = scheme) (Array.to_list refs)

let sim_steady seed =
  let profiles = seeded_profiles seed in
  let setup () =
    let sim_cells = sim_grid profiles in
    (* the reference run of every cell doubles as the warm-up pass *)
    let sim_refs = Array.map run_cell sim_cells in
    { sim_cells; sim_refs; sim_ref_json = Array.map Metrics.to_json sim_refs }
  in
  let sweep st ~traced:_ =
    Array.map (fun c -> cell ("sim." ^ c.key) (fun () -> run_cell c)) st.sim_cells
  in
  let verify st out =
    Array.iteri
      (fun i r ->
        fail_unless
          (match r with Some m -> Metrics.to_json m = st.sim_ref_json.(i) | None -> false))
      out
  in
  let uops = List.length sim_schemes * List.length profiles * sim_length in
  let finish st =
    (* the model's error on the paper's own inputs (seed 0), whatever the
       workload seed *)
    let cells0 = if seed = 0 then st.sim_cells else sim_grid (seeded_profiles 0) in
    let refs0 = if seed = 0 then st.sim_refs else Array.map run_cell cells0 in
    let err, n = grid_error ~schemes:(List.map fst sim_schemes) (by_scheme cells0 refs0) in
    { uops_per_pass = uops;
      digest = md5 (String.concat "\n" (Array.to_list st.sim_ref_json));
      err_pp = err; headlines = n; checks = [];
      model = model_metrics (by_scheme st.sim_cells st.sim_refs) }
  in
  let layers st ~passes =
    let ticks = Array.fold_left (fun acc m -> acc + m.Metrics.ticks) 0 st.sim_refs in
    let per_scheme = List.length profiles * sim_length * passes in
    let sim_total = sumf (fun (_, k) -> Tracer.total_duration ("sim." ^ k)) sim_schemes in
    List.map
      (fun (_, k) ->
        ( "sim." ^ k ^ ".ns_per_uop",
          Tracer.total_duration ("sim." ^ k) *. 1e9 /. float_of_int per_scheme ))
      sim_schemes
    @ [ ("sim.ns_per_tick", sim_total *. 1e9 /. float_of_int (ticks * passes)) ]
  in
  { setup; sweep; verify; finish; layers }

(* ----- reload-sim: a warm hc_sim -b P --cache-dir D, minus process start ----- *)

type reload_state = {
  r_cache : Artifact_cache.t;
  r_refs : (string * string) list;  (** (baseline, +IR) metrics JSON per profile *)
  r_ref_metrics : (Metrics.t * Metrics.t) list;
}

let cfg_ir = Config.with_scheme Config.default (Config.find_scheme "+IR")
let cfg_base = Config.with_scheme cfg_ir Config.monolithic
let decide = Hc_steering.Policy.decide
let run_base tr = Pipeline.run ~cfg:cfg_base ~decide ~scheme_name:"baseline" tr
let run_ir tr = Pipeline.run ~cfg:cfg_ir ~decide ~scheme_name:"+IR" tr

let reload_sim seed =
  let profiles = seeded_profiles seed in
  let simulate tr =
    let base = run_base tr in
    (base, run_ir tr)
  in
  let sweep st ~traced:_ =
    List.map
      (fun profile ->
        cell "reload.cell" (fun () ->
            match
              Tracer.with_span "cache.find_trace" (fun () ->
                  Artifact_cache.find_trace st.r_cache ~profile ~length:reload_length)
            with
            | None -> failwith ("trace cache miss for " ^ profile.Profile.name)
            | Some tr ->
              let base = Tracer.with_span "sim.first_run" (fun () -> run_base tr) in
              let ir = Tracer.with_span "sim.warm_run" (fun () -> run_ir tr) in
              Tracer.with_span "report" (fun () ->
                  ( Metrics.speedup_pct ~baseline:base ir,
                    Metrics.to_json base,
                    Metrics.to_json ir ))))
      profiles
  in
  let verify st out =
    List.iter2
      (fun r (rb, ri) ->
        fail_unless
          (match r with Some (_, jb, ji) -> jb = rb && ji = ri | None -> false))
      out st.r_refs
  in
  let setup () =
    let r_cache = Artifact_cache.create ~root:(fresh_root "reload") () in
    let r_ref_metrics =
      List.map
        (fun profile ->
          let tr = Generator.generate_sliced ~length:reload_length profile in
          Artifact_cache.store_trace r_cache ~profile ~length:reload_length tr;
          simulate tr)
        profiles
    in
    let st =
      { r_cache; r_ref_metrics;
        r_refs =
          List.map (fun (b, i) -> (Metrics.to_json b, Metrics.to_json i)) r_ref_metrics }
    in
    verify st (sweep st ~traced:false);
    st
  in
  let m pairs = function
    | "baseline" -> List.map fst pairs
    | "+IR" -> List.map snd pairs
    | _ -> []
  in
  let finish st =
    let c = Artifact_cache.counts st.r_cache in
    (* the model's error on the paper's own inputs (seed 0) *)
    let pairs0 =
      if seed = 0 then st.r_ref_metrics
      else
        List.map
          (fun p -> simulate (Generator.generate_sliced ~length:reload_length p))
          (seeded_profiles 0)
    in
    let err, n = grid_error ~schemes:[ "baseline"; "+IR" ] (m pairs0) in
    { uops_per_pass = List.length profiles * reload_length;
      digest = md5 (String.concat "\n" (List.map (fun (b, i) -> b ^ "\n" ^ i) st.r_refs));
      err_pp = err; headlines = n;
      checks =
        [ ("every find_trace hits", c.Artifact_cache.trace_misses = 0 && c.trace_hits > 0) ];
      model = model_metrics (m st.r_ref_metrics) }
  in
  let layers _ ~passes =
    let per_uop name =
      Tracer.total_duration name *. 1e9
      /. float_of_int (passes * List.length profiles * reload_length)
    in
    [ ("cache.find_trace_ns_per_uop", per_uop "cache.find_trace");
      ("cache.trace_hits", float_of_int (List.length profiles));
      ("sim.first_run_ns_per_uop", per_uop "sim.first_run");
      ("sim.warm_run_ns_per_uop", per_uop "sim.warm_run") ]
  in
  { setup; sweep; verify; finish; layers }

(* ----- trace-ingest: the cache write side — generate, publish, analyze ----- *)

type ingest_state = {
  i_cache : Artifact_cache.t;
  mutable i_ref : (string * int) list;  (** encoded trace, bidir-provable count *)
}

let trace_ingest seed =
  let profiles = seeded_profiles seed in
  let sweep st ~traced:_ =
    List.map
      (fun profile ->
        cell "ingest.cell" (fun () ->
            let tr =
              Tracer.with_span "gen.generate" (fun () ->
                  Generator.generate_sliced ~length:ingest_length profile)
            in
            Tracer.with_span "cache.store_trace" (fun () ->
                Artifact_cache.store_trace st.i_cache ~profile ~length:ingest_length tr);
            let b = Tracer.with_span "analysis.bidir" (fun () -> Static.analyze_bidir tr) in
            (tr, b)))
      profiles
  in
  let verify st out =
    List.iter2
      (fun profile (r, (_, provable)) ->
        fail_unless
          (match r with
          | None -> false
          | Some (tr, b) -> (
            b.Static.bidir_provable_count = provable
            && b.Static.bidir_steerable_count >= b.Static.base.Static.steerable_count
            &&
            match Artifact_cache.find_trace st.i_cache ~profile ~length:ingest_length with
            | Some back -> back.Trace.name = tr.Trace.name && Trace.soa back = Trace.soa tr
            | None -> false)))
      profiles
      (List.combine out st.i_ref)
  in
  let setup () =
    let st =
      { i_cache = Artifact_cache.create ~root:(fresh_root "ingest") (); i_ref = [] }
    in
    (* the warm-up pass fixes the reference every later pass must match *)
    let out = sweep st ~traced:false in
    st.i_ref <-
      List.map
        (function
          | Some (tr, b) -> (Codec.encode tr, b.Static.bidir_provable_count)
          | None -> ("", -1))
        out;
    verify st out;
    st
  in
  let uops = List.length profiles * ingest_length in
  let finish st =
    (* the characterization headlines a trace alone determines (fig1,
       opmix, fig11, fig13), on the paper's own inputs (seed 0) *)
    let trs =
      List.map (fun p -> Generator.generate_sliced ~length:ingest_length p) (seeded_profiles 0)
    in
    let avg f = mean (List.map f trs) in
    let mixes = List.map Analysis.operand_mix trs in
    let mix f = mean (List.map f mixes) in
    let hs =
      [ (65.0, avg Analysis.narrow_dependence_pct);
        (39.4, mix (fun m -> m.Analysis.one_narrow));
        (3.3, mix (fun m -> m.Analysis.two_narrow_wide_result));
        (43.5, mix (fun m -> m.Analysis.two_narrow_narrow_result));
        (50.0, avg (fun t -> Analysis.carry_not_propagated_pct t ~arith:true));
        (70.0, avg (fun t -> Analysis.carry_not_propagated_pct t ~arith:false));
        (4.0, avg Analysis.mean_distance) ]
    in
    { uops_per_pass = uops;
      digest =
        md5 (String.concat "\n" (List.map (fun (e, n) -> md5 e ^ string_of_int n) st.i_ref));
      err_pp = mean (List.map (fun (p, m) -> Float.abs (m -. p)) hs);
      headlines = List.length hs; checks = []; model = [] }
  in
  let layers st ~passes =
    let per_uop name =
      Tracer.total_duration name *. 1e9 /. float_of_int (passes * uops)
    in
    let bytes = sumf (fun (e, _) -> float_of_int (String.length e)) st.i_ref in
    let provable = List.fold_left (fun acc (_, n) -> acc + n) 0 st.i_ref in
    [ ("gen.ns_per_uop", per_uop "gen.generate");
      ("cache.store_trace_ns_per_uop", per_uop "cache.store_trace");
      ("cache.bytes_per_uop", bytes /. float_of_int uops);
      ("cache.bytes_written", bytes);
      ("analysis.bidir_ns_per_uop", per_uop "analysis.bidir");
      ("analysis.bidir_provable_pct", 100. *. float_of_int provable /. float_of_int uops) ]
  in
  { setup; sweep; verify; finish; layers }

(* ----- paper-cold: every experiment against a fresh, empty cache ----- *)

(* The headlines of the paper's own experiments. attrib, headroom,
   bottleneck and related hold invariants, repo-added bounds or sanity
   anchors in their "paper" column and are left out. *)
let paper_headline_ids =
  [ "fig1"; "opmix"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig11"; "fig12";
    "fig13"; "cp"; "ir"; "tab2"; "fig14" ]

let invariant_headlines =
  [ ("attribution coverage of steered uops (%)", 100.);
    ("static_888 width-violation recoveries (zero by construction)", 0.);
    ("static_bidir width-violation recoveries (zero by construction)", 0.);
    ("benchmarks where bidir steers below forward (monotonicity)", 0.);
    ("runs violating the slot partition (count)", 0.);
    ("suite size (Table 2 sums to 409; text says 412)", 409.) ]

let campaign_schemes =
  [ "baseline"; "8_8_8"; "+BR"; "+LR"; "+CR"; "+CP"; "+IR"; "+IR(nodest)";
    "static_888"; "static_bidir" ]

type paper_out = (string * (string * Experiments.headline list) option) list

(* What a pass leaves behind once verified: its Runs memo is dropped so a
   later pass does not run on a larger live heap. *)
type paper_summary = {
  p_digest : string;
  p_headlines : (string * Experiments.headline) list;
  p_counts : Artifact_cache.counts;
  p_bytes : int;
  p_model : (string * float) list;
}

type paper_state = {
  mutable untraced : paper_summary option;
  mutable traced : paper_summary option;
}

let paper_cold () =
  let spec = Runs.spec_profiles in
  let sweep _ ~traced =
    let cache = Artifact_cache.create ~root:(fresh_root "paper") () in
    let runs = Runs.create ~length:paper_length ~cache () in
    if traced then begin
      (* the campaign the experiments' own prep steps would fill, front
         loaded so the per-experiment spans hold only their own work *)
      Tracer.with_span "runs.ensure_traces" (fun () -> Runs.ensure_traces runs spec);
      Tracer.with_span "runs.static_info" (fun () ->
          List.iter (fun p -> ignore (Runs.static_info runs (Runs.trace runs p))) spec);
      Tracer.with_span "runs.ensure" (fun () ->
          List.iter
            (fun scheme ->
              Tracer.with_span ("runs.ensure." ^ scheme) (fun () ->
                  Runs.ensure_spec runs [ scheme ]))
            campaign_schemes)
    end;
    let out : paper_out =
      List.map
        (fun (e : Experiments.t) ->
          (e.Experiments.id, cell ("exp." ^ e.Experiments.id) (fun () -> e.Experiments.run runs)))
        Experiments.all
    in
    (traced, runs, cache, out)
  in
  let summarize runs cache (out : paper_out) =
    let text (id, r) =
      match r with
      | None -> id ^ ": failed"
      | Some (text, hs) ->
        id ^ "\n" ^ text
        ^ String.concat ""
            (List.map
               (fun (h : Experiments.headline) ->
                 Printf.sprintf "\n%s %h %h" h.Experiments.label h.paper h.measured)
               hs)
    in
    let d = Artifact_cache.disk cache in
    { p_digest = md5 (String.concat "\n" (List.map text out));
      p_headlines =
        List.concat_map
          (fun (id, r) ->
            match r with Some (_, hs) -> List.map (fun h -> (id, h)) hs | None -> [])
          out;
      p_counts = Artifact_cache.counts cache;
      p_bytes = d.Artifact_cache.trace_bytes + d.run_bytes;
      p_model =
        model_metrics (fun scheme ->
            List.map (fun prof -> Runs.metrics runs ~scheme prof) spec) }
  in
  let verify st (traced, runs, cache, out) =
    List.iter
      (fun (_, r) ->
        fail_unless
          (match r with
          | None -> false
          | Some (_, hs) ->
            List.for_all
              (fun (h : Experiments.headline) ->
                match List.assoc_opt h.Experiments.label invariant_headlines with
                | Some v -> h.measured = v
                | None -> true)
              hs))
      out;
    let s = Some (summarize runs cache out) in
    if traced then st.traced <- s else st.untraced <- s
  in
  let setup () =
    (* warm-up: every Runs-backed experiment once at a short length, so the
       timed pass holds no first runs of the simulator and analyses *)
    let w_runs =
      Runs.create ~length:paper_warmup_length
        ~cache:(Artifact_cache.create ~root:(fresh_root "paper-warmup") ())
        ()
    in
    List.iter
      (fun (e : Experiments.t) ->
        if e.Experiments.id <> "fig14" then ignore (e.Experiments.run w_runs))
      Experiments.all;
    { untraced = None; traced = None }
  in
  let finish st =
    let p = Option.get st.untraced in
    let paper = List.filter (fun (id, _) -> List.mem id paper_headline_ids) p.p_headlines in
    let invariants_found =
      List.for_all
        (fun (label, _) ->
          List.exists
            (fun (_, (h : Experiments.headline)) -> h.Experiments.label = label)
            p.p_headlines)
        invariant_headlines
    in
    let same_digest =
      match st.traced with None -> true | Some t -> t.p_digest = p.p_digest
    in
    { uops_per_pass = List.length spec * paper_length;
      digest = p.p_digest;
      err_pp =
        mean
          (List.map
             (fun (_, (h : Experiments.headline)) -> Float.abs (h.Experiments.measured -. h.paper))
             paper);
      headlines = List.length paper;
      checks =
        [ ("30 paper headlines", List.length paper = 30);
          ("invariant headlines present", invariants_found);
          ("cold cache: 12 trace misses, 0 hits",
            p.p_counts.Artifact_cache.trace_misses = 12 && p.p_counts.trace_hits = 0);
          ("traced and untraced outputs identical", same_digest) ];
      model = p.p_model }
  in
  let layers st ~passes:_ =
    let p = Option.get st.traced in
    let c = p.p_counts in
    let span name = Tracer.total_duration name in
    [ ("runs.ensure_traces_s", span "runs.ensure_traces");
      ("runs.static_info_s", span "runs.static_info");
      ("runs.ensure_s", span "runs.ensure");
      ("runs.cells", float_of_int c.Artifact_cache.run_misses);
      ("cache.trace_misses", float_of_int c.trace_misses);
      ("cache.run_misses", float_of_int c.run_misses);
      ("cache.trace_hits", float_of_int c.trace_hits);
      ("cache.bytes_written", float_of_int p.p_bytes) ]
    @ List.map (fun id -> ("exp." ^ id ^ "_s", span ("exp." ^ id))) experiment_ids
  in
  { setup; sweep; verify; finish; layers }

(* ----- the harness ----- *)

(* One pass: the sweep between two calibration marks, its outputs verified
   outside the timed region. Times are host-normalized (see Calib): the
   pass by the slices inside it, each cell by the slices around it. *)
type pass = { wall : float; cpu : float; raw_wall : float; minor : float; major : int }

let one_pass w st ~traced =
  Gc.full_major ();
  pass_cells := [];
  let g0 = Gc.quick_stat () in
  let m0 = Calib.mark () in
  let out =
    if traced then Tracer.with_span "pass" (fun () -> w.sweep st ~traced)
    else w.sweep st ~traced
  in
  let m1 = Calib.mark () in
  let g1 = Gc.quick_stat () in
  w.verify st out;
  let factor = Calib.wall_factor m0 m1 in
  if not traced then
    cell_ms :=
      List.rev_append
        (List.map (fun (c0, c1) -> Calib.own_wall c0 c1 *. Calib.around c0 c1 *. 1000.) !pass_cells)
        !cell_ms;
  { wall = Calib.own_wall m0 m1 *. factor; cpu = Calib.own_cpu m0 m1 *. Calib.cpu_factor m0 m1;
    raw_wall = Calib.own_wall m0 m1; minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections }

(* Untraced passes until [seconds] of pass time and [min_cells] samples. *)
let measure w st ~seconds ~min_cells =
  let rec go acc elapsed =
    if acc <> [] && elapsed >= seconds && List.length !cell_ms >= min_cells then
      List.rev acc
    else
      let p = one_pass w st ~traced:false in
      go (p :: acc) (elapsed +. p.raw_wall)
  in
  go [] 0.

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed body

let run_workload (type st out) name (w : (st, out) workload) ~seconds ~trace =
  Calib.start ();
  let say fmt = Printf.printf ("perfbench %s: " ^^ fmt ^^ "\n") name in
  (* setup_s: the median of [setup_repeats] full setups, the first timed
     from program start *)
  let setup_times = ref [] and state = ref None and m = ref program_mark in
  for _ = 1 to setup_repeats do
    let st = w.setup () in
    let m1 = Calib.mark () in
    setup_times := (Calib.own_wall !m m1 *. Calib.wall_factor !m m1) :: !setup_times;
    state := Some st;
    m := m1
  done;
  let st = Option.get !state in
  let setup_ok = !failed = 0 in
  (* operations from here on are the measured run's *)
  attempted := 0;
  failed := 0;
  let min_cells = if name = "paper-cold" then 0 else min_cell_samples in
  let passes = measure w st ~seconds ~min_cells in
  (* read before [finish], whose seed-0 reference runs are not the workload *)
  let peak_rss_mb = vm_hwm_mb () in
  let walls = List.map (fun p -> p.wall) passes in
  let wall = median walls and cpu = median (List.map (fun p -> p.cpu) passes) in
  say "%d setups %s s, %d passes, wall %s s (host time %s s), %d cell samples" setup_repeats
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setup_times))
    (List.length passes)
    (String.concat " " (List.map (Printf.sprintf "%.3f") walls))
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.raw_wall) passes))
    (List.length !cell_ms);
  say "gc per pass: minor words %s; major collections %s"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.0f" p.minor) passes))
    (String.concat " " (List.map (fun p -> string_of_int p.major) passes));
  let checks_ok = ref true in
  let report_check (label, ok) =
    if not ok then checks_ok := false;
    say "check %-40s %s" label (if ok then "ok" else "FAILED")
  in
  let finish_checks o =
    say "digest %s over %d headlines, paper_err_pp %.4f" o.digest o.headlines o.err_pp;
    Option.iter (fun e -> say "first error: %s" e) !first_error;
    List.iter report_check (("setup outputs verified", setup_ok) :: o.checks)
  in
  if not trace then begin
    let o = w.finish st in
    finish_checks o;
    let correct = !failed = 0 && !checks_ok in
    print_result ~correct
      [ ("setup_s", "s", median !setup_times); ("wall_s", "s", wall);
        ("cpu_s", "s", cpu); ("uops_per_s", "uops/s", float_of_int o.uops_per_pass /. wall);
        ("cell_p50_ms", "ms", quantile !cell_ms 0.5);
        ("cell_p90_ms", "ms", quantile !cell_ms 0.9);
        ("peak_rss_mb", "MB", peak_rss_mb); ("paper_err_pp", "pp", o.err_pp) ];
    correct
  end
  else begin
    (* the traced run: up to three more passes with spans on *)
    Tracer.recording := true;
    let traced =
      List.filteri (fun i _ -> i < traced_passes) passes
      |> List.map (fun _ -> one_pass w st ~traced:true)
    in
    Tracer.recording := false;
    let o = w.finish st in
    finish_checks o;
    let n = List.length traced in
    let pass_total = Tracer.total_duration "pass" in
    let selfs = Tracer.self_by_name () in
    let unattributed = try List.assoc "pass" selfs with Not_found -> 0. in
    let layer_self = sumf snd (List.filter (fun (k, _) -> k <> "pass") selfs) in
    let traced_wall = median (List.map (fun p -> p.wall) traced) in
    say "traced %d passes, wall %s s, overhead %+.4f s per pass" n
      (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) traced))
      (traced_wall -. wall);
    List.iter
      (fun (k, v) -> say "  self %-24s %10.4f s  %5.1f%%" k v (100. *. v /. pass_total))
      selfs;
    report_check
      ( "span self times reconcile with pass wall",
        Float.abs (layer_self +. unattributed -. pass_total) <= 1e-6 *. pass_total );
    let values =
      o.model
      @ w.layers st ~passes:n
      @ [ ("unattributed_s", unattributed /. float_of_int n);
          ("gc.minor_words_per_uop",
            median (List.map (fun p -> p.minor) passes) /. float_of_int o.uops_per_pass);
          ("gc.major_collections", median (List.map (fun p -> float_of_int p.major) passes));
          ("trace.pass_s", traced_wall); ("trace.overhead_s", traced_wall -. wall) ]
    in
    let correct = !failed = 0 && !checks_ok in
    print_result ~correct
      (List.map
         (fun (k, unit) ->
           (k, unit, match List.assoc_opt k values with Some v -> v | None -> 0.))
         per_layer_units);
    Tracer.write_chrome
      (Filename.concat "perfbench" (Printf.sprintf "_out/%s.spans.json" name));
    correct
  end

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-cold|sim-steady|reload-sim|trace-ingest \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" and seed = int_arg "seed" in
  let seconds = float_of_int (int_arg "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  Domain_pool.set_jobs 1;
  List.iter (fun d -> try Sys.mkdir d 0o755 with Sys_error _ -> ())
    [ "perfbench/_tmp"; scratch_dir; "perfbench/_out" ];
  let correct =
    Fun.protect
      ~finally:(fun () -> rm_rf scratch_dir)
      (fun () ->
        match workload with
        | "sim-steady" -> run_workload workload (sim_steady seed) ~seconds ~trace
        | "reload-sim" -> run_workload workload (reload_sim seed) ~seconds ~trace
        | "trace-ingest" -> run_workload workload (trace_ingest seed) ~seconds ~trace
        | "paper-cold" -> run_workload workload (paper_cold ()) ~seconds ~trace
        | _ -> usage ())
  in
  exit (if correct then 0 else 1)
