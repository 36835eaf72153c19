(* Tests for the prediction hardware: confidence counters, the width
   predictor, and the CR/CP extension bits. *)

module Confidence = Hc_predictors.Confidence
module Width_predictor = Hc_predictors.Width_predictor
module Carry_predictor = Hc_predictors.Carry_predictor
module Copy_predictor = Hc_predictors.Copy_predictor
module Bundle = Hc_predictors.Bundle

let test_confidence () =
  let c = Confidence.create () in
  Alcotest.(check int) "starts at 0" 0 (Confidence.value c);
  Alcotest.(check int) "2-bit max" 3 (Confidence.max_value c);
  Alcotest.(check bool) "not high initially" false (Confidence.is_high c);
  for _ = 1 to 5 do Confidence.strengthen c done;
  Alcotest.(check int) "saturates" 3 (Confidence.value c);
  Alcotest.(check bool) "high when saturated" true (Confidence.is_high c);
  Alcotest.(check bool) "threshold override" true (Confidence.is_high ~threshold:2 c);
  Confidence.weaken c;
  Alcotest.(check int) "weaken clears" 0 (Confidence.value c);
  Alcotest.check_raises "bits < 1" (Invalid_argument "Confidence.create: bits < 1")
    (fun () -> ignore (Confidence.create ~bits:0 ()))

let test_width_learns () =
  let t = Width_predictor.create () in
  let pc = 0x400100 in
  let p0 = Width_predictor.predict t pc in
  Alcotest.(check bool) "cold entry not confident" false p0.Width_predictor.confident;
  for _ = 1 to 4 do Width_predictor.update t pc ~narrow:true done;
  let p = Width_predictor.predict t pc in
  Alcotest.(check bool) "learned narrow" true p.Width_predictor.narrow;
  Alcotest.(check bool) "confident after stability" true p.Width_predictor.confident;
  Width_predictor.update t pc ~narrow:false;
  let p = Width_predictor.predict t pc in
  Alcotest.(check bool) "flip updates width" false p.Width_predictor.narrow;
  Alcotest.(check bool) "flip clears confidence" false p.Width_predictor.confident;
  Alcotest.(check bool) "probe agrees" true
    (Width_predictor.accuracy_probe t pc ~narrow:false)

let test_width_aliasing () =
  (* tagless table: pcs 1024 bytes apart with 256 entries and 4-byte
     strides share an entry *)
  let t = Width_predictor.create ~entries:256 () in
  let pc_a = 0x400000 and pc_b = 0x400000 + (256 * 4) in
  for _ = 1 to 4 do Width_predictor.update t pc_a ~narrow:true done;
  let p = Width_predictor.predict t pc_b in
  Alcotest.(check bool) "aliased entry visible" true p.Width_predictor.narrow;
  Width_predictor.update t pc_b ~narrow:false;
  let p = Width_predictor.predict t pc_a in
  Alcotest.(check bool) "aliasing destroys the neighbour" false
    p.Width_predictor.narrow

let test_width_sizes () =
  Alcotest.(check int) "default 256" 256 (Width_predictor.entries (Width_predictor.create ()));
  Alcotest.check_raises "bad size"
    (Invalid_argument "Width_predictor.create: entries <= 0") (fun () ->
      ignore (Width_predictor.create ~entries:0 ()))

let test_carry () =
  let t = Carry_predictor.create () in
  let pc = 0x400200 in
  for _ = 1 to 4 do Carry_predictor.update t pc ~carry_local:true done;
  let p = Carry_predictor.predict t pc in
  Alcotest.(check bool) "learned local" true p.Carry_predictor.carry_local;
  Alcotest.(check bool) "confident" true p.Carry_predictor.confident;
  Carry_predictor.update t pc ~carry_local:false;
  let p = Carry_predictor.predict t pc in
  Alcotest.(check bool) "flip" false p.Carry_predictor.carry_local;
  Alcotest.(check bool) "confidence cleared" false p.Carry_predictor.confident

let test_copy () =
  let t = Copy_predictor.create () in
  let pc = 0x400300 in
  Alcotest.(check bool) "cold predicts no copy" false (Copy_predictor.predict t pc);
  Copy_predictor.update t pc ~copied:true;
  Alcotest.(check bool) "last-value set" true (Copy_predictor.predict t pc);
  Copy_predictor.update t pc ~copied:false;
  Alcotest.(check bool) "last-value cleared" false (Copy_predictor.predict t pc)

let test_bundle () =
  let b = Bundle.create ~entries:64 () in
  ignore (Width_predictor.predict b.Bundle.width 0);
  ignore (Carry_predictor.predict b.Bundle.carry 0);
  ignore (Copy_predictor.predict b.Bundle.copy 0);
  Alcotest.(check int) "bundle sizing" 64 (Width_predictor.entries b.Bundle.width)

(* property: on a width-stable instruction stream the predictor converges
   to perfect accuracy after at most one training update per entry *)
let prop_stable_stream_converges =
  QCheck.Test.make ~name:"stable streams are fully predictable"
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_range 0 1000) bool))
    (fun statics ->
      let t = Width_predictor.create () in
      (* dedupe by table index to avoid destructive aliasing in this test *)
      let seen = Hashtbl.create 16 in
      let statics =
        List.filter
          (fun (pc, _) ->
            let idx = (pc * 4) lsr 2 mod 256 in
            if Hashtbl.mem seen idx then false
            else begin
              Hashtbl.add seen idx ();
              true
            end)
          statics
      in
      let train () =
        List.iter (fun (pc, narrow) -> Width_predictor.update t (pc * 4) ~narrow) statics
      in
      train ();
      train ();
      List.for_all
        (fun (pc, narrow) -> Width_predictor.accuracy_probe t (pc * 4) ~narrow)
        statics)

(* The masked index of a power-of-two table and [mod] on any other size
   both select entry [(pc lsr 2) mod n], for any int [pc], negative ones
   included. *)
let prop_pc_index =
  QCheck.Test.make ~name:"table index = (pc lsr 2) mod n" ~count:2_000
    QCheck.(pair (oneofl [ 1; 100; 256; 4096 ]) int)
    (fun (n, pc) ->
      Hc_predictors.Pc_index.index ~size:n ~mask:(Hc_predictors.Pc_index.mask n)
        pc
      = (pc lsr 2) mod n)

let suite =
  ( "predictors",
    [
      Alcotest.test_case "confidence counter" `Quick test_confidence;
      Alcotest.test_case "width predictor learns" `Quick test_width_learns;
      Alcotest.test_case "width predictor aliasing" `Quick test_width_aliasing;
      Alcotest.test_case "width predictor sizes" `Quick test_width_sizes;
      Alcotest.test_case "carry predictor" `Quick test_carry;
      Alcotest.test_case "copy predictor" `Quick test_copy;
      Alcotest.test_case "bundle" `Quick test_bundle;
      QCheck_alcotest.to_alcotest prop_stable_stream_converges;
      QCheck_alcotest.to_alcotest prop_pc_index;
    ] )
