module Table = Hc_stats.Table

let field j name = Option.bind (Json.member name j) Json.number

let string_field j name = Option.bind (Json.member name j) Json.string_value

let run_label j =
  match (string_field j "name", string_field j "scheme") with
  | Some n, Some s -> Printf.sprintf "%s [%s]" n s
  | Some n, None -> n
  | None, _ -> "(unnamed)"

let fmt_opt fmt = function None -> "-" | Some v -> Printf.sprintf fmt v

let count j name = fmt_opt "%.0f" (field j name)

let pct_of j name ~of_ =
  match (field j name, field j of_) with
  | Some v, Some total when total > 0. ->
    Printf.sprintf "%.1f%%" (100. *. v /. total)
  | Some _, Some _ -> "0.0%"
  | _ -> "-"

let summary_table runs =
  let t = Table.create ("metric" :: List.map (fun (_, j) -> run_label j) runs) in
  let row name cell = Table.add_row t (name :: List.map cell runs) in
  row "committed" (fun (_, j) -> count j "committed");
  row "cycles" (fun (_, j) -> fmt_opt "%.0f" (field j "cycles"));
  row "ipc" (fun (_, j) -> fmt_opt "%.3f" (field j "ipc"));
  row "steered narrow" (fun (_, j) ->
      pct_of j "steered_narrow" ~of_:"committed");
  row "copies" (fun (_, j) -> pct_of j "copies" ~of_:"committed");
  row "split uops" (fun (_, j) -> count j "split_uops");
  Table.add_separator t;
  row "wpred correct" (fun (_, j) ->
      match
        ( field j "wpred_correct", field j "wpred_fatal",
          field j "wpred_nonfatal" )
      with
      | Some c, Some f, Some nf when c +. f +. nf > 0. ->
        Printf.sprintf "%.1f%%" (100. *. c /. (c +. f +. nf))
      | _ -> "-");
  row "wpred fatal" (fun (_, j) -> count j "wpred_fatal");
  row "prefetch useful" (fun (_, j) ->
      pct_of j "prefetch_useful" ~of_:"prefetch_copies");
  row "issued total" (fun (_, j) -> count j "issued_total");
  Table.render t

let attrib_rows =
  [ ("888 all-narrow", "steered_888"); ("BR flag-branch", "steered_br");
    ("CR carry", "steered_cr"); ("IR split-slice", "steered_ir");
    ("other narrow", "steered_other") ]

let wide_rows =
  [ ("wide by default", "wide_default"); ("wide demoted", "wide_demoted") ]

let attrib_cell j key =
  match (field j key, field j "committed") with
  | Some v, Some total when total > 0. ->
    Printf.sprintf "%.0f (%.1f%%)" v (100. *. v /. total)
  | Some v, _ -> Printf.sprintf "%.0f" v
  | None, _ -> "-"

let attrib_table runs =
  let t =
    Table.create ("steered by" :: List.map (fun (_, j) -> run_label j) runs)
  in
  List.iter
    (fun (label, key) ->
      Table.add_row t
        (label :: List.map (fun (_, j) -> attrib_cell j key) runs))
    attrib_rows;
  Table.add_separator t;
  Table.add_row t
    ("narrow total"
    :: List.map (fun (_, j) -> attrib_cell j "steered_narrow") runs);
  Table.add_row t
    ("provable (static)"
    :: List.map (fun (_, j) -> attrib_cell j "static_narrow_bound") runs);
  Table.add_row t
    ("provable (bidir)"
    :: List.map (fun (_, j) -> attrib_cell j "static_bidir_bound") runs);
  Table.add_separator t;
  List.iter
    (fun (label, key) ->
      Table.add_row t
        (label :: List.map (fun (_, j) -> attrib_cell j key) runs))
    wide_rows;
  Table.render t

(* Compare against the tightest bound the file carries: the bidirectional
   one when present (schema 5), the forward one otherwise. *)
let over_static_bound j =
  let bound =
    match field j "static_bidir_bound" with
    | Some _ as b -> b
    | None -> field j "static_narrow_bound"
  in
  match (field j "steered_888", bound) with
  | Some predicted, Some bound -> predicted > bound
  | _ -> false

let attrib_consistent j =
  match
    ( field j "steered_888", field j "steered_br", field j "steered_cr",
      field j "steered_ir", field j "steered_other" )
  with
  | Some a, Some b, Some c, Some d, Some e -> (
    match
      ( field j "steered_narrow", field j "split_uops", field j "committed",
        field j "wide_default", field j "wide_demoted" )
    with
    | Some narrow, Some splits, Some committed, Some wd, Some wdem ->
      a +. b +. c +. d +. e = narrow
      && d = splits
      && wd +. wdem = committed -. narrow
    | _ -> false )
  | _ -> true (* schema 1 file: nothing to check *)

(* ----- top-down stall attribution (schema-4 "stall" object) ----- *)

(* Category and lane names mirror the stall rows of Hc_obs.Counts; this
   library is dependency-free so the JSON schema is the contract, not the
   module (test_report pins the two to each other). *)
let stall_categories =
  [ "issued"; "frontend"; "dispatch"; "wait_operands"; "wait_copy"; "memory";
    "width_recovery"; "drained"; "idle" ]

let stall_lanes = [ "wide"; "narrow"; "commit" ]

let stall_obj j = Json.member "stall" j

let stall_lane_slots stall lane =
  (* exact expected slot count: lane width x accounted rounds *)
  let width =
    field stall (if lane = "commit" then "commit_width" else "issue_width")
  in
  match (Json.member lane stall, width) with
  | Some l, Some w -> (
    match field l "rounds" with Some r -> Some (w *. r) | None -> None )
  | _ -> None

let stall_cell stall lane cat =
  Option.bind (Json.member lane stall) (fun l -> field l cat)

let topdown_consistent j =
  match stall_obj j with
  | None -> true (* pre-schema-4 file or accounting off: nothing to check *)
  | Some stall ->
    List.for_all
      (fun lane ->
        match stall_lane_slots stall lane with
        | None -> false
        | Some expected ->
          let sum =
            List.fold_left
              (fun acc cat ->
                match stall_cell stall lane cat with
                | Some v -> acc +. v
                | None -> Float.nan)
              0. stall_categories
          in
          sum = expected (* exact; nan (missing category) fails *))
      stall_lanes

let topdown_table j =
  match stall_obj j with
  | None -> "(no stall object — run hc_sim with --topdown)"
  | Some stall ->
    let t =
      Table.create
        ("category"
        :: List.map (fun l -> l ^ " slots (share)") stall_lanes)
    in
    List.iter
      (fun cat ->
        Table.add_row t
          (cat
          :: List.map
               (fun lane ->
                 match
                   (stall_cell stall lane cat, stall_lane_slots stall lane)
                 with
                 | Some v, Some total when total > 0. ->
                   Printf.sprintf "%.0f (%.1f%%)" v (100. *. v /. total)
                 | Some v, _ -> Printf.sprintf "%.0f" v
                 | None, _ -> "-")
               stall_lanes))
      stall_categories;
    Table.add_separator t;
    Table.add_row t
      ("total slots"
      :: List.map
           (fun lane -> fmt_opt "%.0f" (stall_lane_slots stall lane))
           stall_lanes);
    Table.render t

(* policy-vs-policy delta view: per lane, each category's share under the
   base and candidate runs plus the delta in percentage points *)
let topdown_delta_table ~base:(bn, bj) ~cand:(cn, cj) =
  match (stall_obj bj, stall_obj cj) with
  | Some bs, Some cs ->
    let share stall lane cat =
      match (stall_cell stall lane cat, stall_lane_slots stall lane) with
      | Some v, Some total when total > 0. -> Some (100. *. v /. total)
      | _ -> None
    in
    let t =
      Table.create
        ("category"
        :: List.map
             (fun l -> Printf.sprintf "%s: %s -> %s" l bn cn)
             stall_lanes)
    in
    List.iter
      (fun cat ->
        Table.add_row t
          (cat
          :: List.map
               (fun lane ->
                 match (share bs lane cat, share cs lane cat) with
                 | Some a, Some b ->
                   Printf.sprintf "%5.1f%% -> %5.1f%% (%+.1fpp)" a b (b -. a)
                 | _ -> "-")
               stall_lanes))
      stall_categories;
    Table.render t
  | _ -> "(both runs need a stall object for the delta view)"

(* the phase-visible subset of the 30 stall-CSV columns *)
let stall_timeline_columns =
  [ "wide_issued"; "wide_dispatch"; "wide_memory"; "narrow_issued";
    "narrow_dispatch"; "narrow_wait_copy"; "commit_issued"; "commit_memory" ]

let default_timeline_columns =
  [ "ipc"; "steered_narrow"; "copies"; "wpred_accuracy_pct"; "rob" ]

let timeline ?(width = 60) ?columns csv =
  let wanted =
    match columns with Some cs -> cs | None -> default_timeline_columns
  in
  let lines =
    List.filter_map
      (fun name ->
        match Loader.column csv name with
        | Some xs -> Some (Sparkline.render_labelled ~width ~label:name xs)
        | None -> None)
      wanted
  in
  String.concat "\n"
    (Printf.sprintf "%s: %d intervals" csv.Loader.csv_path (Loader.rows csv)
    :: lines)

let diff_table ?(all = false) (r : Diff.report) =
  let interesting (e : Diff.entry) =
    match e.Diff.status with
    | Diff.Pass -> all && e.Diff.dir <> Diff.Ignored
    | Diff.New -> all
    | Diff.Regress | Diff.Missing -> true
  in
  let shown = List.filter interesting r.Diff.entries in
  let t = Table.create [ "metric"; "base"; "new"; "delta"; "tol"; "status" ] in
  List.iter
    (fun (e : Diff.entry) ->
      let num = fmt_opt "%.6g" in
      let delta =
        match (e.Diff.base, e.Diff.cand) with
        | Some _, Some _ ->
          if Float.is_finite e.Diff.rel then
            Printf.sprintf "%+.2f%%" (100. *. e.Diff.rel)
          else "inf"
        | _ -> "-"
      in
      Table.add_row t
        [ e.Diff.key; num e.Diff.base; num e.Diff.cand; delta;
          Printf.sprintf "%.2f%%" (100. *. e.Diff.tol);
          Diff.pp_status e.Diff.status ])
    shown;
  let summary =
    Printf.sprintf "compared %d metrics: %d regression%s, %d missing"
      r.Diff.compared r.Diff.regressions
      (if r.Diff.regressions = 1 then "" else "s")
      r.Diff.missing
  in
  if shown = [] then summary else Table.render t ^ "\n" ^ summary
