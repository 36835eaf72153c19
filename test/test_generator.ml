(* Tests for the synthetic trace generator: determinism, structural
   invariants and value-flow consistency. *)

module Generator = Hc_trace.Generator
module Profile = Hc_trace.Profile
module Trace = Hc_trace.Trace
module Uop = Hc_isa.Uop
module Uop_soa = Hc_isa.Uop_soa
module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg
module Semantics = Hc_isa.Semantics

let small_trace ?(length = 5_000) name = Generator.generate ~length (Profile.find_spec_int name)

(* the generator's invariants are stated over records: convert once *)
let iter_uops f t = Array.iter f (Trace.uops t)

let test_length () =
  let t = small_trace "gcc" in
  Alcotest.(check int) "requested length" 5_000 (Trace.length t);
  Alcotest.(check string) "named" "gcc" t.Trace.name

let test_determinism () =
  let a = small_trace "gzip" and b = Trace.uops (small_trace "gzip") in
  iter_uops
    (fun u ->
      let v = b.(u.Uop.id) in
      Alcotest.(check bool)
        (Printf.sprintf "uop %d identical" u.Uop.id)
        true
        (u = v))
    a

let test_ids_dense () =
  let t = Trace.uops (small_trace "vpr") in
  Array.iteri
    (fun i (u : Uop.t) -> Alcotest.(check int) "id matches position" i u.Uop.id)
    t

let test_cmp_precedes_branch () =
  (* every conditional branch is immediately preceded by its flag-producing
     cmp (the generator emits the pair back to back) *)
  let t = Trace.uops (small_trace "parser") in
  for i = 0 to Array.length t - 1 do
    let u = t.(i) in
    if u.Uop.op = Opcode.Branch_cond then begin
      Alcotest.(check bool) "branch not first" true (i > 0);
      let prev = t.(i - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "uop %d: cmp before jcc" i)
        true
        (prev.Uop.op = Opcode.Cmp)
    end
  done

let test_value_flow_consistency () =
  (* replay the architectural register file: every register source operand
     must carry the value its most recent writer produced *)
  let t = small_trace "crafty" in
  let regs = Array.make Reg.count (-1) in
  iter_uops
    (fun u ->
      List.iter2
        (fun src v ->
          match src with
          | Uop.Reg r ->
            let cur = regs.(Reg.to_index r) in
            if cur >= 0 then
              Alcotest.(check int)
                (Printf.sprintf "uop %d reads %s" u.Uop.id (Reg.to_string r))
                cur v
          | Uop.Imm iv ->
            Alcotest.(check int)
              (Printf.sprintf "uop %d imm" u.Uop.id)
              iv v)
        u.Uop.srcs u.Uop.src_vals;
      ( match u.Uop.dst with
      | Some d -> regs.(Reg.to_index d) <- u.Uop.result
      | None -> () );
      if Uop.writes_flags u then regs.(Reg.to_index Reg.Eflags) <- u.Uop.result)
    t

let test_alu_results_evaluate () =
  (* two-source ALU results follow the concrete semantics *)
  let t = small_trace "gap" in
  iter_uops
    (fun u ->
      match u.Uop.op, u.Uop.src_vals with
      | (Opcode.Add | Opcode.Sub | Opcode.And | Opcode.Or | Opcode.Xor), [ a; b ]
        -> (
        match Semantics.eval u.Uop.op [ a; b ] with
        | Some expected ->
          Alcotest.(check int)
            (Printf.sprintf "uop %d %s" u.Uop.id (Opcode.to_string u.Uop.op))
            expected u.Uop.result
        | None -> Alcotest.fail "binary ALU must evaluate")
      | _ -> ())
    t

let test_memory_ops_have_addresses () =
  let t = small_trace "mcf" in
  iter_uops
    (fun u ->
      if Opcode.is_memory u.Uop.op then
        Alcotest.(check bool)
          (Printf.sprintf "uop %d nonzero address" u.Uop.id)
          true (u.Uop.mem_addr > 0))
    t

let test_miss_flags_only_on_loads () =
  let t = small_trace "mcf" in
  iter_uops
    (fun u ->
      if u.Uop.op <> Opcode.Load then begin
        Alcotest.(check bool) "no dl0 miss" false u.Uop.dl0_miss;
        Alcotest.(check bool) "no ul1 miss" false u.Uop.ul1_miss
      end;
      if u.Uop.ul1_miss then
        Alcotest.(check bool) "ul1 miss implies dl0 miss" true u.Uop.dl0_miss)
    t

let test_mix_tracks_profile () =
  let p = Profile.find_spec_int "gcc" in
  let t = Generator.generate ~length:30_000 p in
  let digest = Hc_trace.Analysis.mix_digest t in
  let get k = List.assoc k digest in
  (* cmp+jcc pairing dilutes every static share by (1 + f_cond_branch) *)
  let expected_load = p.Profile.f_load /. (1. +. p.Profile.f_cond_branch) in
  Alcotest.(check bool)
    (Printf.sprintf "load share near profile (%.3f vs %.3f)" (get "load")
       expected_load)
    true
    (Float.abs ((get "load") -. expected_load) < 0.06);
  Alcotest.(check bool) "some branches" true (get "branch" > 0.05);
  Alcotest.(check bool) "alu dominates" true (get "alu" > 0.3)

let test_sliced_skips_warmup () =
  let p = Profile.find_spec_int "eon" in
  let plain = Generator.generate ~length:2_000 p in
  let sliced = Generator.generate_sliced ~length:2_000 p in
  Alcotest.(check int) "same length" (Trace.length plain) (Trace.length sliced);
  Alcotest.(check bool) "different content" true
    ((Trace.uops plain).(0) <> (Trace.uops sliced).(0))

let test_branch_mispredict_rate () =
  let p = Profile.find_spec_int "vpr" in
  let t = Generator.generate ~length:40_000 p in
  let branches = ref 0 and missed = ref 0 in
  iter_uops
    (fun u ->
      if u.Uop.op = Opcode.Branch_cond then begin
        incr branches;
        if u.Uop.branch_mispredicted then incr missed
      end)
    t;
  let rate = float_of_int !missed /. float_of_int (max 1 !branches) in
  Alcotest.(check bool)
    (Printf.sprintf "mispredict rate near profile (%.3f vs %.3f)" rate
       p.Profile.p_mispredict)
    true
    (Float.abs (rate -. p.Profile.p_mispredict) < 0.03)



let test_carry_sites_are_habitual () =
  (* carry locality is a per-site property: among imm-offset loads of one
     static pc, the carry behaviour should be nearly constant *)
  let soa = Trace.soa (small_trace ~length:20_000 "gzip") in
  let per_site = Hashtbl.create 64 in
  for i = 0 to Uop_soa.length soa - 1 do
    let lo = Uop_soa.src_base soa i in
    if
      Uop_soa.op soa i = Opcode.Load
      && Uop_soa.nsrcs soa i = 2
      && Uop_soa.src_reg soa lo >= 0
      && Uop_soa.src_reg soa (lo + 1) < 0
      && Uop_soa.is_8_32_32_bits ~bits:8 soa i
    then begin
      let local = Uop_soa.carry_not_propagated_bits ~bits:8 soa i in
      let pc = Uop_soa.pc soa i in
      let hits, total =
        try Hashtbl.find per_site pc with Not_found -> (0, 0)
      in
      Hashtbl.replace per_site pc ((if local then hits + 1 else hits), total + 1)
    end
  done;
  let sites = ref 0 and habitual = ref 0 in
  Hashtbl.iter
    (fun _ (hits, total) ->
      if total >= 10 then begin
        incr sites;
        let frac = float_of_int hits /. float_of_int total in
        if frac <= 0.2 || frac >= 0.8 then incr habitual
      end)
    per_site;
  Alcotest.(check bool)
    (Printf.sprintf "most sites habitual (%d/%d)" !habitual !sites)
    true
    (!sites > 5 && float_of_int !habitual /. float_of_int !sites > 0.8)

let test_width_locality_supports_prediction () =
  (* a last-width oracle per static pc must beat ~85% on our traces, or the
     256-entry predictor of Fig 5 could never reach its levels *)
  let t = small_trace ~length:20_000 "gap" in
  let last = Hashtbl.create 256 in
  let total = ref 0 and correct = ref 0 in
  iter_uops
    (fun u ->
      if Uop.has_dest u then begin
        let narrow = Hc_isa.Width.is_narrow u.Uop.result in
        ( match Hashtbl.find_opt last u.Uop.pc with
        | Some prev ->
          incr total;
          if prev = narrow then incr correct
        | None -> () );
        Hashtbl.replace last u.Uop.pc narrow
      end)
    t;
  let acc = float_of_int !correct /. float_of_int (max 1 !total) in
  Alcotest.(check bool)
    (Printf.sprintf "per-pc width stability %.1f%%" (100. *. acc))
    true (acc > 0.85)

(* ----- column identity with the record-building reference -----

   [Ref_generator] is the generator as it was when it built one [Uop.t]
   per uop and packed the array. The column-writing generator must
   reproduce its every column exactly: same draws, same values, same
   flags, same operand windows. *)

module Workloads = Hc_trace.Workloads

(* first uop whose columns differ, for a readable failure *)
let first_difference a b =
  let n = min (Uop_soa.length a) (Uop_soa.length b) in
  let rec go i =
    if i >= n then n
    else if Uop_soa.to_uop a i <> Uop_soa.to_uop b i then i
    else go (i + 1)
  in
  go 0

let check_columns label expect got =
  let e = Trace.soa expect and g = Trace.soa got in
  if e <> g || expect.Trace.name <> got.Trace.name then
    Alcotest.failf "%s: columns differ from the reference (first at uop %d of %d)"
      label (first_difference e g) (Uop_soa.length e)

let test_spec_columns () =
  List.iter
    (fun p ->
      check_columns (p.Profile.name ^ " sliced 20k")
        (Ref_generator.generate_sliced ~length:20_000 p)
        (Generator.generate_sliced ~length:20_000 p))
    Profile.spec_int

let test_table2_columns () =
  List.iter
    (fun p ->
      check_columns (p.Profile.name ^ " sliced 2k")
        (Ref_generator.generate_sliced ~length:2_000 p)
        (Generator.generate_sliced ~length:2_000 p))
    (Workloads.suite ())

let seeded_arb =
  QCheck.make
    ~print:(fun (name, seed, length) ->
      Printf.sprintf "%s seed %Ld length %d" name seed length)
    QCheck.Gen.(
      triple
        (oneofl Profile.spec_int_names)
        (map Int64.of_int int) (int_range 0 600))

let prop_seeded_columns =
  QCheck.Test.make ~name:"columns match the reference for any seed" ~count:100
    seeded_arb
    (fun (name, seed, length) ->
      let p = Profile.with_seed (Profile.find_spec_int name) seed in
      check_columns "generate" (Ref_generator.generate ~length p)
        (Generator.generate ~length p);
      check_columns "generate_sliced" (Ref_generator.generate_sliced ~length p)
        (Generator.generate_sliced ~length p);
      true)

let suite =
  ( "generator",
    [
      Alcotest.test_case "length and name" `Quick test_length;
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "dense ids" `Quick test_ids_dense;
      Alcotest.test_case "cmp precedes branch" `Quick test_cmp_precedes_branch;
      Alcotest.test_case "value flow consistency" `Quick test_value_flow_consistency;
      Alcotest.test_case "ALU results evaluate" `Quick test_alu_results_evaluate;
      Alcotest.test_case "memory addresses" `Quick test_memory_ops_have_addresses;
      Alcotest.test_case "miss flags" `Quick test_miss_flags_only_on_loads;
      Alcotest.test_case "mix tracks profile" `Quick test_mix_tracks_profile;
      Alcotest.test_case "slicing skips warmup" `Quick test_sliced_skips_warmup;
      Alcotest.test_case "branch mispredict rate" `Quick test_branch_mispredict_rate;
      Alcotest.test_case "carry sites habitual" `Quick test_carry_sites_are_habitual;
      Alcotest.test_case "per-pc width stability" `Quick
        test_width_locality_supports_prediction;
      Alcotest.test_case "columns match the reference (12 SPEC, 20k sliced)"
        `Quick test_spec_columns;
      Alcotest.test_case "columns match the reference (409 Table-2 apps, 2k sliced)"
        `Quick test_table2_columns;
      QCheck_alcotest.to_alcotest prop_seeded_columns;
    ] )
