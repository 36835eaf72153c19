(* Per-uop allocation gates. Two runs of the same work over traces of
   different lengths cancel every per-run fixed cost (the Metrics record,
   counter tables, first-run scratch-arena growth, result arrays large
   enough to go straight to the major heap), leaving only the minor-heap
   words that scale with the uop count. [Gc.minor_words] counts allocated
   words deterministically, so each bound is exact, not a timing
   statistic. *)

module Codec = Hc_trace.Codec
module Config = Hc_sim.Config
module Generator = Hc_trace.Generator
module Pipeline = Hc_sim.Pipeline
module Profile = Hc_trace.Profile
module Rng = Hc_trace.Rng
module Static = Hc_analysis.Static
module Trace = Hc_trace.Trace

let gcc length = Generator.generate_sliced ~length (Profile.find_spec_int "gcc")

(* Marginal words per uop of [work], as [counter] counts them, between a
   short and a long input, each given with its uop count. [work] runs
   once untimed on each input first, which sizes the per-domain scratch
   arenas. *)
let marginal counter work (uops_short, short) (uops_long, long) =
  work short;
  work long;
  let words x =
    let w0 = counter () in
    work x;
    counter () -. w0
  in
  let words_short = words short in
  let words_long = words long in
  (words_long -. words_short) /. float_of_int (uops_long - uops_short)

let marginal_words work = marginal Gc.minor_words work

(* Words allocated on the major heap. OCaml 5.1 adds a domain's direct
   major allocations to [quick_stat]'s count only as a major slice
   ends, so a bare read lags by what the running slice has allocated:
   three repeats of the decode measurement below read 21.3, 5.1 and
   17.3 words/uop that way. A full major collection before each read
   settles the count, and the marginal repeats exactly. *)
let major_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).Gc.major_words

let marginal_major_words work = marginal major_words work

let sized tr = (Trace.length tr, tr)

let run_888 tr =
  let cfg = Config.with_scheme Config.default (Config.find_scheme "8_8_8") in
  ignore
    (Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:"8_8_8" tr)

let check_words ?(heap = "minor") label ~bound words =
  if words > bound then
    Alcotest.failf "%s: %.4f %s words/uop, bound %.1f" label words heap bound

(* the untraced SoA simulator, on an already-built trace *)
let test_warm_run () =
  check_words "warm 8_8_8 run" ~bound:0.0
    (marginal_words run_888 (sized (gcc 2_000)) (sized (gcc 4_000)))

(* an accounted run, as every Runs simulation is: the blocked-occupant
   census keeps counts instead of walking the issue queue, and its
   consumer lists and re-check ring live in the per-domain arena *)
let test_warm_accounted_run () =
  let cfg = Config.with_scheme Config.default (Config.find_scheme "+IR") in
  let run tr =
    ignore
      (Pipeline.run ~accounting:true ~cfg ~decide:Hc_steering.Policy.decide
         ~scheme_name:"+IR" tr)
  in
  check_words "warm accounted +IR run" ~bound:0.0
    (marginal_words run (sized (gcc 4_000)) (sized (gcc 8_000)))

(* the cache-reload path: decode a trace's HCTB bytes, then simulate the
   decoded trace once; anything the first run rebuilds per uop shows
   here. Both lengths keep every decoded column above the minor heap's
   large-block threshold, so the columns cancel like any fixed cost. *)
let test_decode_first_run () =
  let profile = Profile.find_spec_int "gcc" in
  let encoded tr = (Trace.length tr, Codec.encode tr) in
  check_words "HCTB decode + first run" ~bound:0.0
    (marginal_words
       (fun bytes -> run_888 (Codec.decode ~profile bytes))
       (encoded (gcc 4_000)) (encoded (gcc 8_000)))

(* the static width inference: forward known bits, backward live bits
   and their join. What remains per uop is the abstract values the
   forward pass keeps in its register file (5.8 words/uop measured). *)
let test_bidir_analysis () =
  check_words "Static.analyze_bidir" ~bound:6.0
    (marginal_words
       (fun tr -> ignore (Static.analyze_bidir tr))
       (sized (gcc 4_000)) (sized (gcc 8_000)))

(* trace generation: the walk steps one reused cursor and copies it into
   the builder's columns, which at both lengths are above the minor
   heap's large-block threshold; the static program is the same at both
   lengths, so its construction cancels *)
let test_generate_sliced () =
  let profile = Profile.find_spec_int "gcc" in
  let gen length = ignore (Generator.generate_sliced ~length profile) in
  check_words "Generator.generate_sliced" ~bound:1.0
    (marginal_words gen (2_000, 2_000) (4_000, 4_000))

(* the HCTB encoder sizes its output and writes it into one buffer; the
   buffer is above the large-block threshold at both lengths *)
let test_encode () =
  check_words "Codec.encode" ~bound:0.0
    (marginal_words
       (fun tr -> ignore (Codec.encode tr))
       (sized (gcc 4_000)) (sized (gcc 8_000)))

(* The columns the write side builds, per uop on the major heap. Seven
   int columns, the flag bytes and the operand columns at three a uop
   come to 13 words, and [build] trims the operand columns to their
   ~2 operands a uop in 4 more: 17.3 words/uop for generation, 17.2 for
   decoding. Operand columns that start too small and double once cost
   6 more (23.3 and 23.2 before the builder took a per-uop limit). The
   bidirectional analysis keeps its per-uop verdicts and forward facts,
   6.4 words/uop; as [bool array]s the two narrowness columns made it
   9.0. *)
let test_major_words () =
  let profile = Profile.find_spec_int "gcc" in
  check_words ~heap:"major" "Generator.generate_sliced" ~bound:18.0
    (marginal_major_words
       (fun length -> ignore (Generator.generate_sliced ~length profile))
       (2_000, 2_000) (4_000, 4_000));
  let encoded tr = (Trace.length tr, Codec.encode tr) in
  check_words ~heap:"major" "Codec.decode" ~bound:18.0
    (marginal_major_words
       (fun bytes -> ignore (Codec.decode ~profile bytes))
       (encoded (gcc 4_000)) (encoded (gcc 8_000)));
  check_words ~heap:"major" "Static.analyze_bidir" ~bound:7.0
    (marginal_major_words
       (fun tr -> ignore (Static.analyze_bidir tr))
       (sized (gcc 4_000)) (sized (gcc 8_000)))

(* the per-draw primitives keep the splitmix state unboxed *)
let draws draw n =
  let rng = Rng.create 5L in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (draw rng))
  done

let test_rng_draws () =
  check_words "Rng.bool" ~bound:0.0
    (marginal_words (draws (fun r -> Rng.bool r 0.5)) (1_000, 1_000)
       (2_000, 2_000));
  check_words "Rng.int" ~bound:0.0
    (marginal_words (draws (fun r -> Rng.int r 1_000)) (1_000, 1_000)
       (2_000, 2_000))

let suite =
  ( "alloc",
    [
      Alcotest.test_case "warm run allocates 0 words/uop" `Quick test_warm_run;
      Alcotest.test_case "decode + first run allocates 0 words/uop" `Quick
        test_decode_first_run;
      Alcotest.test_case "bidir analysis allocates <= 6 words/uop" `Quick
        test_bidir_analysis;
      Alcotest.test_case "generate_sliced allocates <= 1 word/uop" `Quick
        test_generate_sliced;
      Alcotest.test_case "Rng.bool and Rng.int allocate 0 words/draw" `Quick
        test_rng_draws;
      Alcotest.test_case "warm accounted run allocates 0 words/uop" `Quick
        test_warm_accounted_run;
      Alcotest.test_case "encode allocates 0 minor words/uop" `Quick
        test_encode;
      Alcotest.test_case "write-side major words/uop within bounds" `Quick
        test_major_words;
    ] )
