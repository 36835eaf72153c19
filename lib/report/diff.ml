type direction = Two_sided | Higher_better | Lower_better | Ignored

type status = Pass | Regress | Missing | New

type entry = {
  key : string;
  dir : direction;
  base : float option;
  cand : float option;
  rel : float;
  tol : float;
  status : status;
}

type report = {
  entries : entry list;
  compared : int;
  regressions : int;
  missing : int;
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let last_segment key =
  match String.rindex_opt key '.' with
  | None -> key
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)

(* Host identity and wall clock vary run to run by construction; the
   schema version is what the diff itself interprets, not a metric. *)
let ignored_segments = [ "schema"; "host_cores"; "jobs"; "unix_time_s" ]

let lower_better_segments =
  [ "ticks"; "cycles"; "wpred_fatal"; "wpred_nonfatal" ]

let classify key =
  let seg = last_segment key in
  if List.mem seg ignored_segments then Ignored
  else if List.mem seg lower_better_segments then Lower_better
  else if seg = "ipc" then Higher_better
  else Two_sided

let tolerance_for ?(tols = []) ~default_tol key =
  (* exact key or prefix, longest pattern wins; "default" is a spelled-out
     alias for the catch-all so CLI users can write --tol default=0.01 *)
  let best =
    List.fold_left
      (fun acc (pat, tol) ->
        let matches =
          pat = key || pat = "default" || has_prefix ~prefix:pat key
        in
        let len = if pat = "default" then 0 else String.length pat in
        match acc with
        | _ when not matches -> acc
        | Some (blen, _) when blen >= len -> acc
        | _ -> Some (len, tol))
      None tols
  in
  match best with Some (_, tol) -> tol | None -> default_tol

let rel_delta ~base ~cand =
  if base = cand then 0.
  else if base = 0. then infinity *. (if cand > 0. then 1. else -1.)
  else (cand -. base) /. Float.abs base

let judge dir ~rel ~tol =
  match dir with
  | Ignored -> Pass
  | Two_sided -> if Float.abs rel <= tol then Pass else Regress
  | Higher_better -> if rel >= -.tol then Pass else Regress
  | Lower_better -> if rel <= tol then Pass else Regress

let run ?(tols = []) ?(default_tol = 0.) ~base ~cand () =
  let base_leaves = Loader.numeric_leaves base in
  let cand_leaves = Loader.numeric_leaves cand in
  let cand_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace cand_tbl k v) cand_leaves;
  let base_keys = Hashtbl.create 64 in
  List.iter (fun (k, _) -> Hashtbl.replace base_keys k ()) base_leaves;
  let entries =
    List.map
      (fun (key, bv) ->
        let dir = classify key in
        let tol = tolerance_for ~tols ~default_tol key in
        match Hashtbl.find_opt cand_tbl key with
        | None ->
          let status = if dir = Ignored then Pass else Missing in
          { key; dir; base = Some bv; cand = None; rel = 0.; tol; status }
        | Some cv ->
          let rel = rel_delta ~base:bv ~cand:cv in
          {
            key; dir; base = Some bv; cand = Some cv; rel; tol;
            status = judge dir ~rel ~tol;
          })
      base_leaves
  in
  (* keys only the candidate has: informational, never a failure — the
     metrics schema grows column by column across PRs *)
  let fresh =
    List.filter_map
      (fun (key, cv) ->
        if Hashtbl.mem base_keys key then None
        else
          Some
            {
              key; dir = classify key; base = None; cand = Some cv;
              rel = 0.; tol = 0.; status = New;
            })
      cand_leaves
  in
  let entries = entries @ fresh in
  let count st = List.length (List.filter (fun e -> e.status = st) entries) in
  {
    entries;
    compared =
      List.length
        (List.filter
           (fun e -> e.dir <> Ignored && e.status <> New && e.status <> Missing)
           entries);
    regressions = count Regress;
    missing = count Missing;
  }

let exit_code r = if r.regressions > 0 then 1 else if r.missing > 0 then 2 else 0

let pp_status = function
  | Pass -> "ok"
  | Regress -> "REGRESS"
  | Missing -> "MISSING"
  | New -> "new"
