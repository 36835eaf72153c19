module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Trace = Hc_trace.Trace
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Span = Hc_obs.Span

type t = {
  len : int;
  telemetry : Telemetry.config option;
  cache : Artifact_cache.t option;
  progress : Telemetry.progress option;
  traces : (string, Trace.t) Hashtbl.t;
  statics : (string, Hc_analysis.Static.bidir) Hashtbl.t;
  runs : (string * string, Metrics.t) Hashtbl.t;
}

let create ?(length = 30_000) ?telemetry ?cache ?progress () =
  ( match telemetry with
  | Some { Telemetry.dir; _ } -> Telemetry.mkdir_p dir
  | None -> () );
  {
    len = length;
    telemetry;
    cache;
    progress;
    traces = Hashtbl.create 32;
    statics = Hashtbl.create 32;
    runs = Hashtbl.create 64;
  }

let length t = t.len

(* Trace acquisition goes through the artifact cache when one is
   attached: a warm cache turns the ~1.5 s generate into a millisecond
   binary reload, and cold generations publish for the next process.
   Safe from pool workers: distinct profiles land on distinct keys, and
   publishes are atomic renames. *)
let generate t (p : Profile.t) =
  Artifact_cache.trace_or_generate t.cache ~profile:p ~length:t.len

let trace t (p : Profile.t) =
  match Hashtbl.find_opt t.traces p.Profile.name with
  | Some tr -> tr
  | None ->
    let tr = generate t p in
    Hashtbl.add t.traces p.Profile.name tr;
    tr

(* Memoized static width analysis, keyed like the trace memo. Always
   computed on the calling domain: the result is shared read-only with
   parallel workers, never mutated after construction. The bidirectional
   record embeds the forward pass as [.base], so one memoized analysis
   serves both oracle schemes and both exported bounds. *)
let static_info t (tr : Trace.t) =
  match Hashtbl.find_opt t.statics tr.Trace.name with
  | Some s -> s
  | None ->
    let s =
      Span.with_span "static-analysis"
        ~meta:[ ("benchmark", tr.Trace.name) ]
        (fun () -> Hc_analysis.Static.analyze_bidir tr)
    in
    Hashtbl.add t.statics tr.Trace.name s;
    s

(* The oracle pseudo-schemes: the 8_8_8 machine steered by a static
   width-inference proof instead of the predictors. Not in
   [Config.scheme_stack] because they are not hardware policies — they
   are the zero-recovery steering bounds the tables compare the
   predictors to. [static_888] steers on the forward known-bits proof;
   [static_bidir] adds the backward live-bits join (dead-width proofs,
   tagged Rlive so the pipeline treats them as proof-carried). *)
let oracle_scheme = "static_888"
let bidir_oracle_scheme = "static_bidir"

let resolve_policy ~(static : Hc_analysis.Static.bidir) ~scheme =
  if String.equal scheme oracle_scheme then
    ( Config.with_scheme Config.default (Config.find_scheme "8_8_8"),
      Hc_steering.Policy.static_oracle ~reason:Hc_sim.Steer.R888
        ~provably_narrow:
          (Hc_analysis.Static.provably_narrow static.Hc_analysis.Static.base) )
  else if String.equal scheme bidir_oracle_scheme then
    ( Config.with_scheme Config.default (Config.find_scheme "8_8_8"),
      Hc_steering.Policy.static_oracle ~reason:Hc_sim.Steer.Rlive
        ~provably_narrow:(Hc_analysis.Static.bidir_provable_uop static) )
  else
    ( Config.with_scheme Config.default (Config.find_scheme scheme),
      Hc_steering.Policy.decide )

(* One simulation of one (scheme, trace) cell. Every run — oracle or not —
   carries the trace's static steering bound in its metrics, so exported
   JSON and the attribution tables can show predictor results next to the
   provable headroom, and its cycle-accounting rows in [counts], so the
   bottleneck breakdown reads the same cell every other experiment does
   (accounting leaves every other count bit-identical, see
   test_accounting.ml). With telemetry configured, the run gets an
   interval-sampling sink and leaves its time series and metrics JSON
   behind in the telemetry directory; observation never changes the
   returned metrics (bit-identical, see test_obs.ml), so the memo tables
   stay oblivious to whether a run was observed. Workers write distinct
   per-cell files, so the parallel fan-out needs no locking. *)
let simulate ?telemetry ~(static : Hc_analysis.Static.bidir) ~scheme tr =
  Span.with_span "simulate"
    ~meta:[ ("benchmark", tr.Trace.name); ("scheme", scheme) ]
  @@ fun () ->
  let cfg, decide = resolve_policy ~static ~scheme in
  let attach m =
    {
      m with
      Metrics.static_narrow_bound =
        Some
          static.Hc_analysis.Static.base.Hc_analysis.Static.steerable_count;
      Metrics.static_bidir_bound =
        Some static.Hc_analysis.Static.bidir_steerable_count;
    }
  in
  match telemetry with
  | None ->
    attach (Pipeline.run ~accounting:true ~cfg ~decide ~scheme_name:scheme tr)
  | Some { Telemetry.dir; interval } ->
    let sink = Hc_obs.Sink.create ~interval ~tracing:false () in
    let m =
      attach
        (Pipeline.run ~sink ~accounting:true ~cfg ~decide ~scheme_name:scheme tr)
    in
    let base =
      Filename.concat dir (Telemetry.run_basename ~scheme ~name:tr.Trace.name)
    in
    ignore
      (Telemetry.write_intervals_csv ~path:(base ^ ".intervals.csv")
         (Hc_obs.Sink.samples sink));
    ignore (Telemetry.write_metrics_json ~path:(base ^ ".metrics.json") m);
    m

(* Run-metrics caching. Telemetry runs bypass the metrics cache (their
   side artifacts — interval CSVs, metrics JSON in the telemetry dir —
   must be produced every time); the trace cache still applies. The
   scheme name is validated before any cache lookup so an unknown scheme
   raises Not_found warm exactly as it does cold. *)
let validate_scheme scheme =
  if
    (not (String.equal scheme oracle_scheme))
    && not (String.equal scheme bidir_oracle_scheme)
  then ignore (Config.find_scheme scheme)

let find_cached_metrics t ~scheme (p : Profile.t) =
  match (t.cache, t.telemetry) with
  | Some c, None -> Artifact_cache.find_metrics c ~scheme ~profile:p ~length:t.len
  | _ -> None

let store_cached_metrics t ~scheme (p : Profile.t) m =
  match (t.cache, t.telemetry) with
  | Some c, None -> Artifact_cache.store_metrics c ~scheme ~profile:p ~length:t.len m
  | _ -> ()

let metrics t ~scheme (p : Profile.t) =
  let key = (scheme, p.Profile.name) in
  match Hashtbl.find_opt t.runs key with
  | Some m -> m
  | None -> (
    validate_scheme scheme;
    match find_cached_metrics t ~scheme p with
    | Some m ->
      Hashtbl.add t.runs key m;
      m
    | None ->
      let tr = trace t p in
      let static = static_info t tr in
      let m = simulate ?telemetry:t.telemetry ~static ~scheme tr in
      store_cached_metrics t ~scheme p m;
      Hashtbl.add t.runs key m;
      m)

(* ----- parallel batch fill ----- *)

(* Deduplicate while keeping first-occurrence order, so the fan-out is
   deterministic in shape regardless of how callers assemble the batch. *)
let dedup key xs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

let ensure_traces t profiles =
  let missing =
    dedup
      (fun (p : Profile.t) -> p.Profile.name)
      (List.filter
         (fun (p : Profile.t) -> not (Hashtbl.mem t.traces p.Profile.name))
         profiles)
  in
  match missing with
  | [] -> ()
  | [ p ] -> ignore (trace t p)
  | missing ->
    let pool = Domain_pool.get () in
    let generated =
      Domain_pool.map pool
        (fun (p : Profile.t) -> (p.Profile.name, generate t p))
        (Array.of_list missing)
    in
    (* keyed merge back into the memo table, on the calling domain *)
    Array.iter
      (fun (name, tr) ->
        if not (Hashtbl.mem t.traces name) then Hashtbl.add t.traces name tr)
      generated

let ensure t pairs =
  let missing =
    dedup
      (fun (scheme, (p : Profile.t)) -> (scheme, p.Profile.name))
      (List.filter
         (fun (scheme, (p : Profile.t)) ->
           not (Hashtbl.mem t.runs (scheme, p.Profile.name)))
         pairs)
  in
  (* resolve scheme names before any cache lookup or fan-out: an unknown
     scheme raises Not_found on the calling domain, warm or cold *)
  List.iter (fun (scheme, _) -> validate_scheme scheme) missing;
  ( match t.progress with
  | Some p -> Telemetry.progress_add_total p (List.length missing)
  | None -> () );
  let tick ?cached () =
    match t.progress with
    | Some p -> Telemetry.progress_tick ?cached p
    | None -> ()
  in
  (* metrics-cache pass: cells with a cached run merge directly and need
     neither their trace nor its static analysis — the warm path of a
     full sweep touches no generator state at all *)
  let cold =
    List.filter
      (fun (scheme, (p : Profile.t)) ->
        match find_cached_metrics t ~scheme p with
        | Some m ->
          Hashtbl.replace t.runs (scheme, p.Profile.name) m;
          tick ~cached:true ();
          false
        | None -> true)
      missing
  in
  ensure_traces t (List.map snd cold);
  let jobs_list =
    List.map
      (fun (scheme, (p : Profile.t)) ->
        let tr = trace t p in
        (scheme, p, tr, static_info t tr))
      cold
  in
  let commit (scheme, (p : Profile.t), _, _) m =
    store_cached_metrics t ~scheme p m;
    Hashtbl.replace t.runs (scheme, p.Profile.name) m
  in
  match jobs_list with
  | [] -> ()
  | [ ((scheme, _, tr, static) as job) ] ->
    commit job (simulate ?telemetry:t.telemetry ~static ~scheme tr);
    tick ()
  | jobs_list ->
    let pool = Domain_pool.get () in
    let results =
      Domain_pool.map pool
        (fun (scheme, _, tr, static) ->
          let m = simulate ?telemetry:t.telemetry ~static ~scheme tr in
          (* live progress from the worker: the reporter is mutex-guarded *)
          tick ();
          m)
        (Array.of_list jobs_list)
    in
    (* keyed, order-independent merge: each worker simulated its own
       (scheme, profile) cell with fresh pipeline state over the shared
       read-only trace, so results are bit-identical to sequential runs.
       Cache publishes happen here on the calling domain, one atomic
       rename per cell. *)
    List.iteri (fun i job -> commit job results.(i)) jobs_list

let speedup_pct t ~scheme p =
  let baseline = metrics t ~scheme:"baseline" p in
  Metrics.speedup_pct ~baseline (metrics t ~scheme p)

let spec_profiles = Profile.spec_int

let ensure_spec t schemes =
  ensure t
    (List.concat_map
       (fun scheme -> List.map (fun p -> (scheme, p)) spec_profiles)
       schemes)
