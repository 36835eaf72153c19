(* Tests for the CSV export. *)

module Export = Hc_core.Export
module Runs = Hc_core.Runs
module Meta = Hc_core.Meta
module Domain_pool = Hc_core.Domain_pool

let contains line sub =
  let n = String.length sub in
  let rec find i =
    i + n <= String.length line && (String.sub line i n = sub || find (i + 1))
  in
  find 0

(* run the body on a shared pool of [jobs], restoring the default after *)
let with_jobs jobs f =
  Domain_pool.set_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Domain_pool.set_jobs (Domain_pool.default_jobs ()))
    f

let test_csv_line () =
  Alcotest.(check string) "plain" "a,b,c" (Export.csv_line [ "a"; "b"; "c" ]);
  Alcotest.(check string) "comma quoted" "\"a,b\",c"
    (Export.csv_line [ "a,b"; "c" ]);
  Alcotest.(check string) "quote doubled" "\"say \"\"hi\"\"\""
    (Export.csv_line [ "say \"hi\"" ]);
  Alcotest.(check string) "empty field" "a,,c" (Export.csv_line [ "a"; ""; "c" ])

let test_write_all () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "hc_export_test" in
  let runs = Runs.create ~length:1_500 () in
  (* as [hc_experiments --jobs 1 --csv DIR] runs it *)
  let written = with_jobs 1 (fun () -> Export.write_all runs ~dir) in
  Alcotest.(check int) "eleven files" 11 (List.length written);
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
      if Filename.check_suffix path ".json" then begin
        (* meta.json: a single JSON object line *)
        let ic = open_in path in
        let line = input_line ic in
        close_in ic;
        Alcotest.(check bool) (path ^ " is an object") true
          (String.length line > 2 && line.[0] = '{');
        Alcotest.(check bool) (path ^ " has git_sha field") true
          (contains line "\"git_sha\"");
        Alcotest.(check bool) (path ^ " records the pool's jobs") true
          (contains line "\"jobs\":1,")
      end
      else begin
        let ic = open_in path in
        let header = input_line ic in
        let first = input_line ic in
        close_in ic;
        Alcotest.(check bool) (path ^ " has header") true
          (String.length header > 0);
        Alcotest.(check bool) (path ^ " has data") true (String.length first > 0);
        (* consistent column counts *)
        let cols s = List.length (String.split_on_char ',' s) in
        Alcotest.(check int) (path ^ " column count") (cols header) (cols first)
      end)
    written

(* [jobs] is the pool the run used, not the host default *)
let test_meta_jobs () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          Alcotest.(check int)
            (Printf.sprintf "--jobs %d" jobs)
            jobs (Meta.capture ()).Meta.jobs))
    [ 1; Domain_pool.default_jobs () + 1 ]

let suite =
  ( "export",
    [
      Alcotest.test_case "csv quoting" `Quick test_csv_line;
      Alcotest.test_case "write all figures" `Slow test_write_all;
      Alcotest.test_case "meta records the pool's jobs" `Quick test_meta_jobs;
    ] )
