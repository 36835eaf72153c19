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

(* Marginal minor words per uop of [work] between a short and a long
   input, each given with its uop count. [work] runs once untimed on
   each input first, which sizes the per-domain scratch arenas. *)
let marginal_words work (uops_short, short) (uops_long, long) =
  work short;
  work long;
  let words x =
    let w0 = Gc.minor_words () in
    work x;
    Gc.minor_words () -. w0
  in
  let words_short = words short in
  let words_long = words long in
  (words_long -. words_short) /. float_of_int (uops_long - uops_short)

let sized tr = (Trace.length tr, tr)

let run_888 tr =
  let cfg = Config.with_scheme Config.default (Config.find_scheme "8_8_8") in
  ignore
    (Pipeline.run ~cfg ~decide:Hc_steering.Policy.decide ~scheme_name:"8_8_8" tr)

let check_words label ~bound words =
  if words > bound then
    Alcotest.failf "%s: %.4f minor words/uop, bound %.1f" label words bound

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
   forward pass keeps in its register file. *)
let test_bidir_analysis () =
  check_words "Static.analyze_bidir" ~bound:8.0
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
      Alcotest.test_case "bidir analysis allocates <= 8 words/uop" `Quick
        test_bidir_analysis;
      Alcotest.test_case "generate_sliced allocates <= 1 word/uop" `Quick
        test_generate_sliced;
      Alcotest.test_case "Rng.bool and Rng.int allocate 0 words/draw" `Quick
        test_rng_draws;
      Alcotest.test_case "warm accounted run allocates 0 words/uop" `Quick
        test_warm_accounted_run;
    ] )
