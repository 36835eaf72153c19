(* Registry-dump tooling: read back the Prometheus text exposition that
   --prom-out wrote.

     hc_metrics show dump.prom               validated, normalized listing
     hc_metrics diff before.prom after.prom  per-series delta

   Both subcommands run the strict exposition parser, so they double as
   format validators: a malformed dump exits 3 with the offending line.
   `diff` prints one row per series present in either dump (sorted), with
   the numeric delta — the way to see what a workload added to each
   counter between two scrapes of the same process. *)

module Prom = Hc_obs.Prom

open Cmdliner

let load path =
  match Prom.of_file path with
  | Ok entries -> entries
  | Error e -> Cli.die "hc_metrics: %s: %s" path e

(* stable series key: name plus labels sorted by label name *)
let key (e : Prom.entry) =
  let labels =
    List.sort compare e.Prom.e_labels
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v)
    |> String.concat ","
  in
  if labels = "" then e.Prom.e_name
  else Printf.sprintf "%s{%s}" e.Prom.e_name labels

let value_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let show_cmd =
  let run path =
    let entries = load path in
    let rows = List.sort compare (List.map (fun e -> (key e, e.Prom.e_value)) entries) in
    List.iter
      (fun (k, v) -> Printf.printf "%-60s %s\n" k (value_str v))
      rows;
    Printf.printf "%d series in %s\n" (List.length rows) path
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DUMP.prom")
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:"validate a registry dump and print its series, sorted")
    Term.(const run $ path)

let diff_cmd =
  let run base_path new_path all =
    let index entries =
      let tbl = Hashtbl.create 64 in
      List.iter (fun e -> Hashtbl.replace tbl (key e) e.Prom.e_value) entries;
      tbl
    in
    let base = index (load base_path) in
    let cand = index (load new_path) in
    let keys =
      List.sort_uniq compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) base []
        @ Hashtbl.fold (fun k _ acc -> k :: acc) cand [])
    in
    Printf.printf "base: %s\nnew:  %s\n" base_path new_path;
    Printf.printf "%-60s %14s %14s %14s\n" "series" "base" "new" "delta";
    let changed = ref 0 in
    List.iter
      (fun k ->
        match (Hashtbl.find_opt base k, Hashtbl.find_opt cand k) with
        | Some b, Some n ->
          if b <> n || all then begin
            if b <> n then incr changed;
            Printf.printf "%-60s %14s %14s %+14g\n" k (value_str b)
              (value_str n) (n -. b)
          end
        | None, Some n ->
          incr changed;
          Printf.printf "%-60s %14s %14s %14s\n" k "-" (value_str n) "new"
        | Some b, None ->
          incr changed;
          Printf.printf "%-60s %14s %14s %14s\n" k (value_str b) "-" "gone"
        | None, None -> ())
      keys;
    Printf.printf "%d of %d series changed\n" !changed (List.length keys)
  in
  let base =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BASE.prom")
  in
  let cand =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.prom")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"List unchanged series too, not just deltas.")
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"per-series delta between two registry dumps")
    Term.(const run $ base $ cand $ all)

let () =
  let doc = "read, validate and diff metrics-registry dumps" in
  exit (Cmd.eval (Cmd.group (Cmd.info "hc_metrics" ~doc) [ show_cmd; diff_cmd ]))
