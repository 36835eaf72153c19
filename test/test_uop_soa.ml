(* The packed SoA trace store: QCheck round-trip of the converters over
   synthetic uops and generator output, bit-identity of record-backed vs
   zero-copy SoA-backed simulation on the whole seed suite (fresh decode
   and artifact-cache warm reload), and the sliced/offset-window
   regressions mirroring the Static.in_range fix of the bidirectional
   PR — a slice must rebase its operand columns and preserve uop ids. *)

module Uop = Hc_isa.Uop
module Uop_soa = Hc_isa.Uop_soa
module Reg = Hc_isa.Reg
module Opcode = Hc_isa.Opcode
module Trace = Hc_trace.Trace
module Profile = Hc_trace.Profile
module Generator = Hc_trace.Generator
module Codec = Hc_trace.Codec
module Config = Hc_sim.Config
module Pipeline = Hc_sim.Pipeline
module Metrics = Hc_sim.Metrics
module Static = Hc_analysis.Static
module Runs = Hc_core.Runs
module Artifact_cache = Hc_core.Artifact_cache

(* ----- random uops -----

   The one structural invariant the columns rely on: an [Imm] operand's
   payload IS its concrete source value (the SoA stores a single value
   column and reconstructs [Imm v] from it), so the generator draws the
   value first and reuses it for the payload. *)

let value_gen =
  QCheck.Gen.(
    map
      (fun v -> v land 0xFFFFFFFF)
      (frequency [ (3, int_bound 255); (2, int_bound 0xFFFF); (2, int_bound max_int) ]))

let reg_gen = QCheck.Gen.(map Reg.of_index (int_bound (Reg.count - 1)))

let operand_gen =
  let open QCheck.Gen in
  let* v = value_gen in
  oneof [ return (Uop.Imm v, v); map (fun r -> (Uop.Reg r, v)) reg_gen ]

let uop_gen =
  let open QCheck.Gen in
  let* op = oneofl Opcode.all in
  let* operands = list_size (int_range 0 3) operand_gen in
  let* dst = option reg_gen in
  let* pc = value_gen in
  let* result = value_gen in
  let* mem_addr = value_gen in
  let* taken = bool in
  let* mispred = bool in
  let* dl0 = bool in
  let* ul1 = bool in
  return (fun id ->
      Uop.make ~id ~pc ~op ~srcs:(List.map fst operands) ~dst
        ~src_vals:(List.map snd operands) ~result ~mem_addr ~taken
        ~branch_mispredicted:mispred ~dl0_miss:dl0
        ~ul1_miss:(dl0 && ul1) ())

let uops_gen =
  QCheck.Gen.(
    map
      (fun mks -> Array.of_list (List.mapi (fun i mk -> mk i) mks))
      (list_size (int_range 0 60) uop_gen))

let uops_arb =
  QCheck.make
    ~print:(fun a -> Printf.sprintf "<%d random uops>" (Array.length a))
    uops_gen

let prop_roundtrip_synthetic =
  QCheck.Test.make ~name:"to_uops (of_uops a) = a on random uops" ~count:300
    uops_arb
    (fun a -> Uop_soa.to_uops (Uop_soa.of_uops a) = a)

(* generator output from random seed profiles: the columns the generator
   writes and the records the reference generator emits convert into
   each other exactly *)
let profile_arb =
  QCheck.make
    ~print:(fun (name, len) -> Printf.sprintf "%s length %d" name len)
    QCheck.Gen.(
      pair
        (oneofl (List.map (fun p -> p.Profile.name) Runs.spec_profiles))
        (int_range 1 600))

let prop_roundtrip_generated =
  QCheck.Test.make ~name:"SoA and record views agree on generated traces"
    ~count:40 profile_arb
    (fun (name, length) ->
      let p = Profile.find_spec_int name in
      let st = Ref_generator.create p in
      let records = Array.init length (fun _ -> Ref_generator.next st) in
      let soa = Trace.soa (Generator.generate ~length p) in
      Uop_soa.to_uops soa = records && Uop_soa.of_uops records = soa)

(* ----- simulation bit-identity on the seed suite ----- *)

let cfg_888 = Config.with_scheme Config.default (Config.find_scheme "8_8_8")

let sim_json trace =
  Metrics.to_json
    (Pipeline.run ~cfg:cfg_888 ~decide:Hc_steering.Policy.decide
       ~scheme_name:"8_8_8" trace)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Every seed workload, three origins of the same columns: the
   generator's own, a cold zero-copy decode of its HCTB encoding (columns
   filled straight from the varint stream, no records ever built), and a
   warm artifact-cache reload from disk. All three must simulate to
   byte-identical metrics JSON. *)
let test_sim_bit_identity () =
  let root = Filename.temp_file "hc_soa_test" "" in
  Sys.remove root;
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let cache = Artifact_cache.create ~root () in
      List.iter
        (fun p ->
          let length = 1_200 in
          let t_gen = Generator.generate_sliced ~length p in
          let expect = sim_json t_gen in
          let t_cold = Codec.decode ~profile:p (Codec.encode t_gen) in
          Alcotest.(check string)
            (p.Profile.name ^ ": cold zero-copy decode simulates identically")
            expect (sim_json t_cold);
          Artifact_cache.store_trace cache ~profile:p ~length t_gen;
          match Artifact_cache.find_trace cache ~profile:p ~length with
          | None -> Alcotest.failf "%s: stored trace missing" p.Profile.name
          | Some t_warm ->
            Alcotest.(check string)
              (p.Profile.name ^ ": warm cache reload simulates identically")
              expect (sim_json t_warm))
        Runs.spec_profiles)

(* ----- sliced / offset windows ----- *)

let base_trace = lazy (Generator.generate_sliced ~length:3_000 (Profile.find_spec_int "gcc"))

let test_sub_rebases_operands () =
  let t = Lazy.force base_trace in
  let soa = Trace.soa t in
  let pos = 1_234 and len = 321 in
  let sliced = Uop_soa.sub soa ~pos ~len in
  let expect = Array.sub (Uop_soa.to_uops soa) pos len in
  Alcotest.(check bool)
    "sliced record view equals record-view slice" true
    (Uop_soa.to_uops sliced = expect)

let test_sub_preserves_ids () =
  (* ids are the window-independent key every id-based lookup (the
     Static.in_range contract) depends on: slicing must keep them *)
  let soa = Trace.soa (Lazy.force base_trace) in
  let pos = 777 and len = 55 in
  let sliced = Uop_soa.sub soa ~pos ~len in
  for i = 0 to len - 1 do
    if Uop_soa.id sliced i <> Uop_soa.id soa (pos + i) then
      Alcotest.failf "slice renumbered id at offset %d" i
  done

let test_sub_out_of_range () =
  let soa = Trace.soa (Lazy.force base_trace) in
  let n = Uop_soa.length soa in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "sub ~pos:%d ~len:%d rejected" pos len)
        (Invalid_argument "Uop_soa.sub")
        (fun () -> ignore (Uop_soa.sub soa ~pos ~len)))
    [ (-1, 10); (0, n + 1); (n, 1); (1, -2) ]

(* an offset window simulated from the sliced SoA columns and from a
   freshly re-packed record view must be bit-identical — the sliced
   analogue of the codec identity above *)
let test_sliced_sim_bit_identity () =
  let t = Lazy.force base_trace in
  let sliced = Trace.sub t ~pos:1_000 ~len:800 in
  let repacked =
    Trace.of_soa ~name:sliced.Trace.name ~profile:sliced.Trace.profile
      (Uop_soa.of_uops (Trace.uops sliced))
  in
  Alcotest.(check string) "sliced SoA view simulates identically"
    (sim_json repacked) (sim_json sliced)

let test_sliced_static_agrees () =
  (* the static pass over an offset window must not depend on which view
     backs the trace (the hazard behind the original in_range bug: a
     window position mistaken for a trace index) *)
  let t = Lazy.force base_trace in
  let sliced = Trace.sub t ~pos:500 ~len:900 in
  let repacked =
    Trace.of_soa ~name:sliced.Trace.name ~profile:sliced.Trace.profile
      (Uop_soa.of_uops (Trace.uops sliced))
  in
  let count tr =
    let st = Static.analyze tr and soa = Trace.soa tr in
    List.length
      (List.filter
         (fun i -> Static.steerable_uop st (Uop_soa.id soa i))
         (List.init (Uop_soa.length soa) Fun.id))
  in
  Alcotest.(check int) "steerable count agrees across views" (count repacked)
    (count sliced);
  let foreign = Uop_soa.id (Trace.soa t) 0 in
  Alcotest.(check bool) "uop before the window is out of range" false
    (Static.in_range (Static.analyze sliced) foreign)

let suite =
  ( "uop_soa",
    [
      QCheck_alcotest.to_alcotest prop_roundtrip_synthetic;
      QCheck_alcotest.to_alcotest prop_roundtrip_generated;
      Alcotest.test_case "SoA vs record sim bit-identity (12 seed workloads, cold+warm)"
        `Slow test_sim_bit_identity;
      Alcotest.test_case "sub rebases operand columns" `Quick
        test_sub_rebases_operands;
      Alcotest.test_case "sub preserves uop ids" `Quick test_sub_preserves_ids;
      Alcotest.test_case "sub rejects out-of-range windows" `Quick
        test_sub_out_of_range;
      Alcotest.test_case "sliced sim bit-identity" `Quick
        test_sliced_sim_bit_identity;
      Alcotest.test_case "sliced static analysis agrees across views" `Quick
        test_sliced_static_agrees;
    ] )
