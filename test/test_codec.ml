(* Tests for the binary trace codec: roundtrips (example-based and
   property-based against the text format), format dispatch, and clean
   rejection of every corruption mode the cache self-heals from. *)

module Uop = Hc_isa.Uop
module Reg = Hc_isa.Reg
module Opcode = Hc_isa.Opcode
module Trace = Hc_trace.Trace
module Trace_io = Hc_trace.Trace_io
module Codec = Hc_trace.Codec
module Generator = Hc_trace.Generator
module Profile = Hc_trace.Profile

let temp name = Filename.concat (Filename.get_temp_dir_name ()) name

let gcc = Profile.find_spec_int "gcc"

let gen_trace length name =
  Generator.generate_sliced ~length (Profile.find_spec_int name)

(* ----- roundtrips ----- *)

let test_roundtrip_generated () =
  let t = gen_trace 3_000 "gcc" in
  let t' = Codec.decode ~profile:t.Trace.profile (Codec.encode t) in
  Alcotest.(check string) "name preserved" t.Trace.name t'.Trace.name;
  Alcotest.(check bool) "uops identical" true (Trace_io.roundtrip_equal t t')

let test_empty_roundtrip () =
  let t = Trace.of_soa ~name:"empty" ~profile:gcc (Hc_isa.Uop_soa.of_uops [||]) in
  let t' = Codec.decode ~profile:gcc (Codec.encode t) in
  Alcotest.(check int) "zero uops" 0 (Trace.length t');
  Alcotest.(check string) "name preserved" "empty" t'.Trace.name

let test_size_and_speed_claims () =
  let t = gen_trace 3_000 "mcf" in
  let enc = Codec.encode t in
  Alcotest.(check bool) "starts with magic" true (Codec.is_binary enc);
  let text_path = temp "hc_codec_size.trace" in
  Trace_io.save t text_path;
  let text_bytes = (Unix.stat text_path).Unix.st_size in
  Sys.remove text_path;
  Alcotest.(check bool)
    (Printf.sprintf "binary at least 4x smaller (%d vs %d bytes)"
       (String.length enc) text_bytes)
    true
    (String.length enc * 4 < text_bytes)

let test_save_load_dispatch () =
  let t = gen_trace 1_000 "vpr" in
  let bin_path = temp "hc_codec_dispatch.hct" in
  let text_path = temp "hc_codec_dispatch.trace" in
  Trace_io.save_binary t bin_path;
  Trace_io.save t text_path;
  (* the same loader reads both encodings, keyed off the magic bytes *)
  let from_bin = Trace_io.load ~profile:t.Trace.profile bin_path in
  let from_text = Trace_io.load ~profile:t.Trace.profile text_path in
  Sys.remove bin_path;
  Sys.remove text_path;
  Alcotest.(check bool) "binary load identical" true
    (Trace_io.roundtrip_equal t from_bin);
  Alcotest.(check bool) "text load identical" true
    (Trace_io.roundtrip_equal t from_text)

(* ----- property: binary and text roundtrips agree on random uops ----- *)

(* Random uops within the representable envelope of both formats:
   non-negative 32-bit values, immediates equal to their recorded source
   value (the trace generator's invariant, and all the text format can
   express), registers and opcodes from the real enums. Ids are made
   dense and pcs non-negative after generation. *)
let uop_gen =
  let open QCheck.Gen in
  let value =
    oneof
      [
        int_bound 0xFF;
        (let* hi = int_bound 0xFFFF in
         let* lo = int_bound 0xFFFF in
         return ((hi lsl 16) lor lo));
      ]
  in
  let reg = map Reg.of_index (int_bound (Reg.count - 1)) in
  let operand =
    let* v = value in
    oneof [ return (Uop.Imm v, v); map (fun r -> (Uop.Reg r, v)) reg ]
  in
  let* pc = int_bound 0xFFFFF in
  let* op = oneofl Opcode.all in
  let* operands = list_size (int_bound 3) operand in
  let* dst = option reg in
  let* result = value in
  let* mem_addr = oneof [ return 0; value ] in
  let* taken = bool in
  let* misp = bool in
  let* dl0 = bool in
  let* ul1 = bool in
  return
    (Uop.make ~id:0 ~pc ~op ~srcs:(List.map fst operands) ~dst
       ~src_vals:(List.map snd operands) ~result ~mem_addr ~taken
       ~branch_mispredicted:misp ~dl0_miss:dl0 ~ul1_miss:ul1 ())

let trace_gen =
  let open QCheck.Gen in
  let* uops = list_size (int_bound 60) uop_gen in
  let uops = Array.of_list uops in
  Array.iteri (fun i u -> uops.(i) <- { u with Uop.id = i }) uops;
  return (Trace.of_soa ~name:"prop" ~profile:gcc (Hc_isa.Uop_soa.of_uops uops))

let prop_binary_matches_text =
  QCheck.Test.make ~name:"binary and text roundtrips both reproduce the trace"
    ~count:30
    (QCheck.make
       ~print:(fun t -> Printf.sprintf "<%d random uops>" (Trace.length t))
       trace_gen)
    (fun t ->
      let bin = Codec.decode ~profile:gcc (Codec.encode t) in
      let path = temp "hc_codec_prop.trace" in
      Trace_io.save t path;
      let txt = Trace_io.load ~profile:gcc path in
      Sys.remove path;
      Trace_io.roundtrip_equal t bin
      && Trace_io.roundtrip_equal t txt
      && Trace_io.roundtrip_equal bin txt)

(* ----- corruption: every defect raises Corrupt, never a wrong trace ----- *)

let expect_corrupt name data =
  match Codec.decode ~profile:gcc data with
  | _ -> Alcotest.failf "%s: expected Codec.Corrupt" name
  | exception Codec.Corrupt _ -> ()

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

let test_corrupt_rejected () =
  let enc = Codec.encode (gen_trace 500 "gzip") in
  let n = String.length enc in
  expect_corrupt "truncated body" (String.sub enc 0 (n - 10));
  expect_corrupt "truncated to header" (String.sub enc 0 6);
  expect_corrupt "flipped payload byte" (flip enc (n / 2));
  expect_corrupt "flipped crc byte" (flip enc (n - 1));
  expect_corrupt "trailing garbage" (enc ^ "junk");
  expect_corrupt "future schema"
    (let b = Bytes.of_string enc in
     Bytes.set b 4 (Char.chr 99);
     Bytes.to_string b);
  expect_corrupt "foreign magic" ("XXTB" ^ String.sub enc 4 (n - 4))

let test_corrupt_through_loader () =
  (* a damaged binary file surfaces as Codec.Corrupt from the dispatching
     loader; a non-binary file still takes the text path and its errors *)
  let enc = Codec.encode (gen_trace 300 "mcf") in
  let path = temp "hc_codec_damaged.hct" in
  let oc = open_out_bin path in
  output_string oc (String.sub enc 0 (String.length enc - 5));
  close_out oc;
  ( match Trace_io.load ~profile:gcc path with
  | _ -> Alcotest.fail "expected Codec.Corrupt from dispatching loader"
  | exception Codec.Corrupt _ -> () );
  Sys.remove path;
  let oc = open_out (temp "hc_codec_nottext.trace") in
  output_string oc "not-a-trace\n";
  close_out oc;
  match Trace_io.load ~profile:gcc (temp "hc_codec_nottext.trace") with
  | _ -> Alcotest.fail "expected Failure from text path"
  | exception Failure _ -> Sys.remove (temp "hc_codec_nottext.trace")

(* Re-seal a body (everything before the trailer) with a fresh CRC, so a
   mutation reaches the parser instead of stopping at the checksum. *)
let seal body =
  let hdr = String.length Codec.magic + 1 in
  let crc = Codec.crc32 body ~pos:hdr ~len:(String.length body - hdr) in
  body ^ String.init 4 (fun i -> Char.chr ((crc lsr (8 * i)) land 0xFF))

let rec varint n =
  if n land lnot 0x7F = 0 then String.make 1 (Char.chr n)
  else String.make 1 (Char.chr (0x80 lor (n land 0x7F))) ^ varint (n lsr 7)

let test_oversized_counts () =
  (* CRC-valid headers whose counts claim far more items than the bytes
     left could encode: rejected before anything is allocated *)
  let prefix = Codec.magic ^ String.make 1 (Char.chr Codec.schema_version) ^ "\001x" in
  List.iter
    (fun count ->
      expect_corrupt (Printf.sprintf "uop count %d" count)
        (seal (prefix ^ varint count ^ "\000\000")))
    [ 1 lsl 40; 1 lsl 61; 3 ];
  expect_corrupt "opcode table size 2^40"
    (seal (prefix ^ varint 0 ^ varint (1 lsl 40) ^ "\000"));
  expect_corrupt "register table size 2^40"
    (seal (prefix ^ varint 0 ^ varint 0 ^ varint (1 lsl 40) ^ "\000"));
  expect_corrupt "string length 2^62 - 1"
    (seal (Codec.magic ^ String.make 1 (Char.chr Codec.schema_version)
           ^ varint max_int ^ "x"))

(* ----- property: arbitrary bytes decode or raise Corrupt ----- *)

(* Two kinds of input: raw random bytes (almost all stop at the magic or
   the CRC), and byte mutations of a valid encoding — overwrites, a
   truncation, an insertion — re-sealed with a fresh CRC so they reach
   every field of the body. Either way the decoder must return a trace or
   raise [Codec.Corrupt]: no other exception, and no hang (each decode is
   held to a generous wall-clock bound). *)
let fuzz_base = lazy (Codec.encode (gen_trace 40 "gzip"))

type fuzz_input = Raw of string | Mutated of (int * int) list * int option

let fuzz_bytes = function
  | Raw s -> s
  | Mutated (edits, cut) ->
    let base = Lazy.force fuzz_base in
    let hdr = String.length Codec.magic + 1 in
    let body = Bytes.of_string (String.sub base 0 (String.length base - 4)) in
    let n = Bytes.length body - hdr in
    List.iter
      (fun (pos, byte) -> Bytes.set body (hdr + (pos mod n)) (Char.chr byte))
      edits;
    let body = Bytes.to_string body in
    let body =
      match cut with
      | None -> body
      | Some k when k mod 2 = 0 -> String.sub body 0 (hdr + (k mod n))
      | Some k ->
        (* insert a byte instead of cutting *)
        let at = hdr + (k mod n) in
        String.sub body 0 at ^ String.make 1 (Char.chr (k land 0xFF))
        ^ String.sub body at (String.length body - at)
    in
    seal body

let fuzz_gen =
  let open QCheck.Gen in
  let byte = int_bound 255 in
  frequency
    [
      (1, map (fun s -> Raw s) (string_size ~gen:char (int_bound 300)));
      ( 1,
        map (fun s -> Raw (Codec.magic ^ s)) (string_size ~gen:char (int_bound 60))
      );
      ( 6,
        map2
          (fun edits cut -> Mutated (edits, cut))
          (list_size (int_range 1 6) (pair (int_bound 100_000) byte))
          (option (int_bound 100_000)) );
    ]

let print_fuzz = function
  | Raw s -> Printf.sprintf "raw %S" s
  | Mutated (edits, cut) ->
    Printf.sprintf "mutations [%s]%s"
      (String.concat "; "
         (List.map (fun (p, b) -> Printf.sprintf "%d:=0x%02x" p b) edits))
      (match cut with Some k -> Printf.sprintf " cut/insert %d" k | None -> "")

let prop_decode_total =
  QCheck.Test.make ~name:"decode returns a trace or raises Corrupt" ~count:1000
    (QCheck.make ~print:print_fuzz fuzz_gen)
    (fun input ->
      let data = fuzz_bytes input in
      let t0 = Unix.gettimeofday () in
      ( match Codec.decode ~profile:gcc data with
      | _ -> ()
      | exception Codec.Corrupt _ -> ()
      | exception e ->
        QCheck.Test.fail_reportf "escaped %s" (Printexc.to_string e) );
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 2.0 then QCheck.Test.fail_reportf "decode took %.1f s" dt;
      true)

let test_crc_stability () =
  (* pinned value so an accidental polynomial / table change cannot pass
     as a "both sides updated" refactor *)
  Alcotest.(check int) "crc32 of known vector" 0xCBF43926
    (Codec.crc32 "123456789" ~pos:0 ~len:9)

(* ----- the stored bytes: pinned, and equal to the Buffer encoder's ----- *)

(* MD5 of [encode] of every SPEC profile's 2k-uop sliced trace, taken
   from the Buffer encoder [Ref_codec] keeps. The artifact cache keys
   its files by schema version, not by content, so any change to these
   bytes must come with a schema bump. *)
let golden_digests =
  [
    ("bzip2", "b603eb963840f32e983b4fe750bb36fb");
    ("crafty", "fd82a1ddbe0bb5c0342c9f8efea057e8");
    ("eon", "62d6b5b05aacd20ad4bed457478df4e8");
    ("gap", "8ece06b6618f4e06251935335d11a0cd");
    ("gcc", "d2031b8262fd263b9a1b4389fdee879c");
    ("gzip", "57404d840576fa6f2deb5be61918dfa6");
    ("mcf", "55654e2f354a44236ff3fb989b03fa5c");
    ("parser", "72d9d3531b9c14a4cc9142c614e967ba");
    ("perlbmk", "6e3a8f67177124d8c2f199643763b023");
    ("twolf", "2f406212c69211ecf23e66ec625af9e7");
    ("vortex", "8e9114b48cd802d2cf3d5c7bb0e87af4");
    ("vpr", "5cec43a3fd2fe3c45aa89f338265d701");
  ]

let test_golden_bytes () =
  Alcotest.(check (list string)) "one digest per SPEC profile"
    (List.map (fun p -> p.Profile.name) Profile.spec_int)
    (List.map fst golden_digests);
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string) name digest
        (Digest.to_hex (Digest.string (Codec.encode (gen_trace 2_000 name)))))
    golden_digests

(* [uop_gen]'s uops, moved to where the codec's arithmetic is hardest:
   ids that jump backwards and forwards by up to 2^40 (the generator's
   ids are dense, so their deltas are all 0), pcs as large, and up to
   [extra] more operands a uop, 16 in all at most (the decoder's limit,
   which also makes the decoder's operand columns grow). *)
let extreme_trace_gen =
  let open QCheck.Gen in
  let big = int_range (-(1 lsl 40)) (1 lsl 40) in
  let operand =
    let* v = oneof [ int_bound 0xFF; int_bound 0xFFFF_FFFF ] in
    oneof
      [ return (Uop.Imm v, v);
        map (fun r -> (Uop.Reg (Reg.of_index r), v)) (int_bound (Reg.count - 1)) ]
  in
  let uop =
    let* u = uop_gen in
    let* id = oneof [ int_range (-3) 3; big ] in
    let* pc = oneof [ return u.Uop.pc; big ] in
    let* extra = list_size (int_bound (16 - List.length u.Uop.srcs)) operand in
    return
      { u with
        Uop.id;
        pc;
        srcs = u.Uop.srcs @ List.map fst extra;
        src_vals = u.Uop.src_vals @ List.map snd extra }
  in
  let* uops = list_size (int_bound 60) uop in
  return
    (Trace.of_soa ~name:"extreme" ~profile:gcc
       (Hc_isa.Uop_soa.of_uops (Array.of_list uops)))

let prop_encode_matches_reference =
  QCheck.Test.make
    ~name:"encode = Buffer reference encoder, byte for byte, and decodes back"
    ~count:200
    (QCheck.make
       ~print:(fun t -> Printf.sprintf "<%d random uops>" (Trace.length t))
       (QCheck.Gen.oneof [ trace_gen; extreme_trace_gen ]))
    (fun t ->
      let enc = Codec.encode t in
      enc = Ref_codec.encode t
      && Trace_io.roundtrip_equal t (Codec.decode ~profile:gcc enc))

(* ----- the slicing-by-8 CRC against the bytewise one ----- *)

(* Every start offset modulo 8 and every length up to 64: the 8-byte
   loop runs 0 to 8 times and its tail 0 to 7 bytes. *)
let prop_crc_matches_bytewise =
  QCheck.Test.make ~name:"crc32 = bytewise CRC-32 at every pos 0..7, len 0..64"
    ~count:100
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:char (return 72)))
    (fun s ->
      let ok = ref true in
      for pos = 0 to 7 do
        for len = 0 to 64 do
          if Codec.crc32 s ~pos ~len <> Ref_codec.crc32 s ~pos ~len then
            ok := false
        done
      done;
      !ok)

let test_crc_unaligned () =
  List.iter
    (fun pad ->
      let s = String.make pad 'x' ^ "123456789" ^ "yz" in
      Alcotest.(check int)
        (Printf.sprintf "crc32 of known vector at offset %d" pad)
        0xCBF43926
        (Codec.crc32 s ~pos:pad ~len:9))
    [ 1; 2; 3; 5; 7 ]

let suite =
  ( "codec",
    [
      Alcotest.test_case "roundtrip of generated trace" `Quick
        test_roundtrip_generated;
      Alcotest.test_case "empty trace" `Quick test_empty_roundtrip;
      Alcotest.test_case "binary is much smaller" `Quick
        test_size_and_speed_claims;
      Alcotest.test_case "save/load dispatch on magic" `Quick
        test_save_load_dispatch;
      QCheck_alcotest.to_alcotest prop_binary_matches_text;
      Alcotest.test_case "corruption modes rejected" `Quick
        test_corrupt_rejected;
      Alcotest.test_case "corruption through Trace_io.load" `Quick
        test_corrupt_through_loader;
      Alcotest.test_case "crc32 known vector" `Quick test_crc_stability;
      Alcotest.test_case "oversized counts rejected" `Quick test_oversized_counts;
      QCheck_alcotest.to_alcotest prop_decode_total;
      Alcotest.test_case "stored bytes pinned by MD5" `Quick test_golden_bytes;
      QCheck_alcotest.to_alcotest prop_encode_matches_reference;
      QCheck_alcotest.to_alcotest prop_crc_matches_bytewise;
      Alcotest.test_case "crc32 known vector at unaligned offsets" `Quick
        test_crc_unaligned;
    ] )
