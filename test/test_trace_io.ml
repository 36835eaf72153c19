(* Tests for trace serialization. *)

module Generator = Hc_trace.Generator
module Profile = Hc_trace.Profile
module Trace = Hc_trace.Trace
module Trace_io = Hc_trace.Trace_io

let temp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_roundtrip () =
  let t = Generator.generate_sliced ~length:2_000 (Profile.find_spec_int "mcf") in
  let path = temp "hc_roundtrip.trace" in
  Trace_io.save t path;
  let t' = Trace_io.load path in
  Alcotest.(check string) "name preserved" "mcf" t'.Trace.name;
  Alcotest.(check bool) "uops identical" true (Trace_io.roundtrip_equal t t')

let test_roundtrip_simulates_identically () =
  let t = Generator.generate_sliced ~length:2_000 (Profile.find_spec_int "vpr") in
  let path = temp "hc_sim.trace" in
  Trace_io.save t path;
  let t' = Trace_io.load path in
  let run trace =
    let cfg =
      Hc_sim.Config.with_scheme Hc_sim.Config.default
        (Hc_sim.Config.find_scheme "+CR")
    in
    Hc_sim.Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide
      ~scheme_name:"+CR" trace
  in
  let a = run t and b = run t' in
  Alcotest.(check int) "identical ticks" a.Hc_sim.Metrics.ticks
    b.Hc_sim.Metrics.ticks;
  Alcotest.(check int) "identical copies" a.Hc_sim.Metrics.copies
    b.Hc_sim.Metrics.copies

let test_malformed () =
  let write path lines =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    path
  in
  let expect_failure name path =
    match Trace_io.load path with
    | _ -> Alcotest.failf "%s: expected failure" name
    | exception Failure _ -> ()
  in
  expect_failure "bad header"
    (write (temp "bad1.trace") [ "not-a-trace" ]);
  expect_failure "truncated"
    (write (temp "bad2.trace") [ "helper-cluster-trace v1 x 2" ]);
  expect_failure "bad uop line"
    (write (temp "bad3.trace")
       [ "helper-cluster-trace v1 x 1"; "0 0 add garbage" ]);
  expect_failure "unknown opcode"
    (write (temp "bad4.trace")
       [ "helper-cluster-trace v1 x 1";
         "0 400000 frobnicate dst=- srcs= res=0 addr=0 taken=0 misp=0 dl0=0 ul1=0" ])

(* a malformed number names its line and its field *)
let test_bad_number_named () =
  let expect name line msg =
    let path = temp "hc_bad_number.trace" in
    let oc = open_out path in
    output_string oc ("helper-cluster-trace v1 x 1\n" ^ line ^ "\n");
    close_out oc;
    match Trace_io.load path with
    | _ -> Alcotest.failf "%s: expected a failure" name
    | exception Failure got -> Alcotest.(check string) name msg got
  in
  let line ~id ~pc ~srcs ~res ~addr =
    Printf.sprintf
      "%s %s add dst=eax srcs=%s res=%s addr=%s taken=0 misp=0 dl0=0 ul1=0" id
      pc srcs res addr
  in
  expect "result"
    (line ~id:"0" ~pc:"400000" ~srcs:"i:1" ~res:"zz" ~addr:"0")
    "line 2: res: expected a hex number, got \"zz\"";
  expect "address"
    (line ~id:"0" ~pc:"400000" ~srcs:"i:1" ~res:"2" ~addr:"")
    "line 2: addr: expected a hex number, got \"\"";
  expect "pc"
    (line ~id:"0" ~pc:"4g" ~srcs:"i:1" ~res:"2" ~addr:"0")
    "line 2: pc: expected a hex number, got \"4g\"";
  expect "operand"
    (line ~id:"0" ~pc:"400000" ~srcs:"r:eax:-1" ~res:"2" ~addr:"0")
    "line 2: operand: expected a hex number, got \"-1\"";
  expect "id"
    (line ~id:"x1" ~pc:"400000" ~srcs:"i:1" ~res:"2" ~addr:"0")
    "line 2: id: expected a decimal number, got \"x1\""

(* the header count must not size an allocation the file cannot fill:
   a two-line trace claiming 4e12 uops is refused, not Out_of_memory *)
let test_header_count_bounded () =
  let path = temp "hc_huge_count.trace" in
  let oc = open_out path in
  output_string oc
    "helper-cluster-trace v1 x 4000000000000\n\
     0 400000 nop dst=- srcs= res=0 addr=0 taken=0 misp=0 dl0=0 ul1=0\n";
  close_out oc;
  match Trace_io.load path with
  | _ -> Alcotest.fail "expected the header count to be refused"
  | exception Failure msg ->
    Alcotest.(check string)
      "located message"
      "line 1: header declares 4000000000000 uops, file has 1 more lines"
      msg

let test_empty_trace () =
  let t =
    Trace.of_soa ~name:"empty" ~profile:(List.hd Profile.spec_int)
      (Hc_isa.Uop_soa.of_uops [||])
  in
  let path = temp "hc_empty.trace" in
  Trace_io.save t path;
  let t' = Trace_io.load path in
  Alcotest.(check int) "zero uops" 0 (Trace.length t')

(* Header and blank-line failures name their line like every uop-line
   failure: the text fuzz property below found them unlocated *)
let test_header_failures_located () =
  let expect name content msg =
    let path = temp "hc_located.trace" in
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc;
    match Trace_io.load path with
    | _ -> Alcotest.failf "%s: expected a failure" name
    | exception Failure got -> Alcotest.(check string) name msg got
  in
  let uop = "0 400000 nop dst=- srcs= res=0 addr=0 taken=0 misp=0 dl0=0 ul1=0" in
  expect "empty file" ""
    "line 1: bad header (expected helper-cluster-trace v1 ...)";
  expect "negative count" "helper-cluster-trace v1 x -3\n"
    "line 1: bad header count \"-3\"";
  expect "blank uop line"
    ("helper-cluster-trace v1 x 2\n\n" ^ uop ^ "\n")
    "line 2: empty line at uop 0"

(* ----- text loader fuzzing ----- *)

type text_fuzz =
  | Raw of string  (* the file's whole content *)
  | Byte_edits of (int * int * int) list
      (* (edit, position, byte) on a saved trace: 0 set, 1 insert, 2 delete *)
  | Line_edits of (int * int * int) list
      (* (edit, line, other) on a saved trace's lines: 0 delete,
         1 duplicate, 2 swap with [other], 3 cut [other] bytes into it *)

let saved_text =
  lazy
    (let t = Generator.generate_sliced ~length:40 (Profile.find_spec_int "gcc") in
     let path = temp "hc_fuzz_base.trace" in
     Trace_io.save t path;
     In_channel.with_open_bin path In_channel.input_all)

let byte_edit s (edit, pos, byte) =
  let n = String.length s in
  let at = if n = 0 then 0 else pos mod n in
  let c = String.make 1 (Char.chr byte) in
  match edit with
  | 0 when n > 0 -> String.sub s 0 at ^ c ^ String.sub s (at + 1) (n - at - 1)
  | 2 when n > 0 -> String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1)
  | _ -> String.sub s 0 at ^ c ^ String.sub s at (n - at)

let line_edit lines (edit, line, other) =
  let n = Array.length lines in
  if n = 0 then lines
  else begin
    let i = line mod n in
    match edit with
    | 0 ->
      Array.append (Array.sub lines 0 i) (Array.sub lines (i + 1) (n - i - 1))
    | 1 -> Array.concat [ Array.sub lines 0 (i + 1); Array.sub lines i (n - i) ]
    | 2 ->
      let j = other mod n in
      let a = Array.copy lines in
      a.(i) <- lines.(j);
      a.(j) <- lines.(i);
      a
    | _ ->
      let a = Array.copy lines in
      a.(i) <- String.sub lines.(i) 0 (other mod (String.length lines.(i) + 1));
      a
  end

let fuzz_content = function
  | Raw s -> s
  | Byte_edits edits -> List.fold_left byte_edit (Lazy.force saved_text) edits
  | Line_edits edits ->
    let lines =
      Array.of_list (String.split_on_char '\n' (Lazy.force saved_text))
    in
    String.concat "\n" (Array.to_list (List.fold_left line_edit lines edits))

let text_fuzz_gen =
  let open QCheck.Gen in
  let edits k =
    list_size (int_range 1 4)
      (triple (int_bound k) (int_bound 100_000) (int_bound 255))
  in
  frequency
    [
      (1, map (fun s -> Raw s) (string_size ~gen:char (int_bound 300)));
      ( 1,
        map
          (fun s -> Raw ("helper-cluster-trace v1 x 3\n" ^ s))
          (string_size ~gen:char (int_bound 300)) );
      ( 1,
        map
          (fun s -> Raw (Hc_trace.Codec.magic ^ s))
          (string_size ~gen:char (int_bound 60)) );
      (4, map (fun e -> Byte_edits e) (edits 2));
      (4, map (fun e -> Line_edits e) (edits 3));
    ]

let print_text_fuzz input =
  let edits l =
    String.concat "; "
      (List.map (fun (e, p, b) -> Printf.sprintf "%d@%d/%d" e p b) l)
  in
  match input with
  | Raw s -> Printf.sprintf "raw %S" s
  | Byte_edits l -> Printf.sprintf "byte edits [%s]" (edits l)
  | Line_edits l -> Printf.sprintf "line edits [%s]" (edits l)

(* "line N: <reason>", N >= 1, with the reason not located again *)
let located msg =
  let n = String.length msg in
  let rec digits i =
    if i < n && msg.[i] >= '0' && msg.[i] <= '9' then digits (i + 1) else i
  in
  n > 5
  && String.sub msg 0 5 = "line "
  &&
  let j = digits 5 in
  j > 5 && msg.[5] <> '0' && j + 1 < n && msg.[j] = ':' && msg.[j + 1] = ' '
  && not (String.starts_with ~prefix:"line " (String.sub msg (j + 2) (n - j - 2)))

let prop_load_total =
  QCheck.Test.make ~name:"text load returns a trace or one located failure"
    ~count:1000
    (QCheck.make ~print:print_text_fuzz text_fuzz_gen)
    (fun input ->
      let content = fuzz_content input in
      let path = Filename.temp_file "hc_fuzz" ".trace" in
      Out_channel.with_open_bin path (fun oc -> output_string oc content);
      let binary = String.starts_with ~prefix:Hc_trace.Codec.magic content in
      let t0 = Unix.gettimeofday () in
      let outcome =
        match Trace_io.load path with
        | _ -> Ok ()
        | exception Hc_trace.Codec.Corrupt _ when binary -> Ok ()
        | exception Failure msg when (not binary) && located msg -> Ok ()
        | exception e -> Error (Printexc.to_string e)
      in
      let dt = Unix.gettimeofday () -. t0 in
      Sys.remove path;
      ( match outcome with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "escaped %s" e );
      if dt > 2.0 then QCheck.Test.fail_reportf "load took %.1f s" dt;
      true)

let suite =
  ( "trace_io",
    [
      Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "roundtrip simulates identically" `Quick
        test_roundtrip_simulates_identically;
      Alcotest.test_case "malformed inputs" `Quick test_malformed;
      Alcotest.test_case "malformed numbers name their field" `Quick
        test_bad_number_named;
      Alcotest.test_case "header count bounded by the file" `Quick
        test_header_count_bounded;
      Alcotest.test_case "empty trace" `Quick test_empty_trace;
      Alcotest.test_case "header failures name their line" `Quick
        test_header_failures_located;
      QCheck_alcotest.to_alcotest prop_load_total;
    ] )
