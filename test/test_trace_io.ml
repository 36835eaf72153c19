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
    ] )
