module Profile = Hc_trace.Profile

type t = {
  git_sha : string option;
  host_cores : int;
  jobs : int;
  seed : string;
  timestamp_utc : string;
  unix_time_s : float;
  obs_enabled : bool;
}

let read_process_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match Unix.close_process_in ic, line with
    | Unix.WEXITED 0, Some l when l <> "" -> Some l
    | _, _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let git_sha () = read_process_line "git rev-parse HEAD 2>/dev/null"

(* XOR of the baked SPEC profile root seeds: a fingerprint of the exact
   trace universe this build simulates, so two exports with different
   numbers can be told apart from the metadata alone. *)
let spec_seed_fingerprint () =
  let x =
    List.fold_left
      (fun acc (p : Profile.t) -> Int64.logxor acc p.Profile.seed)
      0L Profile.spec_int
  in
  Printf.sprintf "0x%Lx" x

let timestamp_of now =
  let tm = Unix.gmtime now in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let capture () =
  let now = Unix.gettimeofday () in
  {
    git_sha = git_sha ();
    host_cores = Domain.recommended_domain_count ();
    jobs = Domain_pool.jobs (Domain_pool.get ());
    seed = spec_seed_fingerprint ();
    timestamp_utc = timestamp_of now;
    unix_time_s = now;
    obs_enabled = Hc_obs.Registry.is_enabled ();
  }

(* the object's fields without surrounding braces, so Export.write_all
   can add its own fields to meta.json *)
let to_json_fields t =
  Printf.sprintf
    "\"git_sha\":%s,\"host_cores\":%d,\"jobs\":%d,\"seed\":\"%s\",\
     \"timestamp_utc\":\"%s\",\"unix_time_s\":%.3f,\"obs_enabled\":%b"
    (match t.git_sha with Some s -> "\"" ^ s ^ "\"" | None -> "null")
    t.host_cores t.jobs t.seed t.timestamp_utc t.unix_time_s t.obs_enabled
