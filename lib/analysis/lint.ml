module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg
module Uop = Hc_isa.Uop
module Value = Hc_isa.Value
module Semantics = Hc_isa.Semantics
module Trace = Hc_trace.Trace
module Profile = Hc_trace.Profile
module Analysis = Hc_trace.Analysis
module Config = Hc_sim.Config

(* Diagnostics-driven verification of trace and configuration artifacts.

   Every check has a stable code so scripts and CI can match on it:

     E101  uop ids not dense (id must increase by exactly 1)
     E103  def-use mismatch: a register read observes a value different
           from the one its last in-window writer produced
     E104  flag pairing: a conditional branch's sources are not exactly
           the flags register, or the flags value read disagrees with the
           last flags writer's result
     E105  cache monotonicity: ul1_miss set without dl0_miss (a uop
           cannot miss the UL1 on a DL0 hit)
     E106  pure-ALU result inconsistent with Semantics.eval over the
           recorded source values
     E107  memory uop whose address is not base + offset of its first
           two source values (or with fewer than two sources)
     E108  binary trace artifact is unreadable: truncated stream, CRC
           mismatch, or structurally invalid codec payload
     E110  static-analysis soundness violation: a provably-narrow uop
           with wide ground truth (hard analysis bug)
     E111  live-bits soundness violation: a provably-dead bit whose
           mutation is observable downstream (hard analysis bug)
     W201  realized instruction mix drifts from the generating profile
     E201  configuration fails Config.validate
     W202  scheme enables steering rules with the helper cluster off
     W203  bidirectional provable bound below the forward bound
           (monotonicity breach)

   The user-facing catalogue — severity, summary, detail, example — for
   every code lives in [catalogue] below; `hc_lint explain` and the
   README's lint table are both generated from it, so there is exactly
   one place these strings exist.

   Reads of registers never written inside the window are accepted
   silently: sliced traces legitimately begin mid-program, so live-in
   values are unknowable, exactly as in the static pass. *)

type severity = Error | Warning | Info

type diagnostic = {
  code : string;
  severity : severity;
  loc : string;  (** file:uop-<id> (or file:- for whole-artifact checks) *)
  message : string;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let to_string d =
  Printf.sprintf "%s[%s] %s: %s" (severity_to_string d.severity) d.code d.loc
    d.message

let pp ppf d = Format.pp_print_string ppf (to_string d)

let has_errors ds = List.exists (fun d -> d.severity = Error) ds

let count severity ds = List.length (List.filter (fun d -> d.severity = severity) ds)

(* ----- diagnostic catalogue ----- *)

type info = {
  i_code : string;
  i_severity : severity;
  i_summary : string;  (* one line; the README table cell *)
  i_detail : string;  (* one paragraph for `hc_lint explain` *)
  i_example : string;  (* a representative diagnostic line *)
}

let catalogue =
  [
    { i_code = "E101"; i_severity = Error;
      i_summary = "uop ids not dense (must increase by exactly 1)";
      i_detail =
        "Dynamic uop ids number the trace positions: every uop's id must \
         be its predecessor's plus one. A gap or repeat means the trace \
         was spliced or truncated mid-stream, and every id-indexed \
         consumer (the static verdict tables, the codec's delta coding) \
         would silently misattribute verdicts to the wrong uops.";
      i_example =
        "error[E101] gcc.trace:uop-4107: uop id 4107 follows 4099 (ids \
         must be dense)" };
    { i_code = "E103"; i_severity = Error;
      i_summary = "register read disagrees with its last in-window writer";
      i_detail =
        "Def-use consistency: a register source must observe exactly the \
         result its most recent in-window writer produced. Reads of \
         registers never written inside the window are accepted (sliced \
         traces begin mid-program), so a hit here is real corruption, \
         not slicing.";
      i_example =
        "error[E103] gcc.trace:uop-998: r3 read 0x7f but its last writer \
         produced 0x80" };
    { i_code = "E104"; i_severity = Error;
      i_summary = "flag producer/consumer pairing broken (structure or value)";
      i_detail =
        "A conditional branch must read exactly the flags register, and \
         the flags value it reads must equal the last flags writer's \
         result. Either failure breaks the BR steering rule's premise \
         that the branch depends on its flag producer.";
      i_example =
        "error[E104] gcc.trace:uop-1500: conditional branch must read \
         exactly the flags register" };
    { i_code = "E105"; i_severity = Error;
      i_summary = "ul1_miss set without dl0_miss (miss monotonicity)";
      i_detail =
        "The memory hierarchy is inclusive in the model: a uop can only \
         miss the UL1 after missing the DL0. A ul1_miss bit without its \
         dl0_miss bit describes a physically impossible access and would \
         bill the simulator's memory model the wrong latency.";
      i_example =
        "error[E105] gcc.trace:uop-77: ul1_miss set without dl0_miss \
         (miss monotonicity violated)" };
    { i_code = "E106"; i_severity = Error;
      i_summary = "pure-ALU result inconsistent with Semantics.eval";
      i_detail =
        "For every opcode the concrete evaluator can compute, the \
         recorded result must equal Semantics.eval over the recorded \
         source values. The generator maintains this by construction, so \
         a mismatch means the artifact was edited or corrupted.";
      i_example =
        "error[E106] gcc.trace:uop-310: add result 0x100 but evaluating \
         the sources gives 0x101" };
    { i_code = "E107"; i_severity = Error;
      i_summary = "memory address is not base + offset of the first two sources";
      i_detail =
        "Memory uops carry their AGU output in mem_addr; it must equal \
         the 32-bit sum of the first two source values (base + offset), \
         and a memory uop must have at least two sources. The 8-32-32 \
         shape and the carry (CR) rule both read this field.";
      i_example =
        "error[E107] gcc.trace:uop-42: memory address 0x8010 but base + \
         offset is 0x8000" };
    { i_code = "E108"; i_severity = Error;
      i_summary = "binary trace artifact corrupt (truncated / CRC / structure)";
      i_detail =
        "The HCTB binary codec failed before a trace existed to check: \
         truncated stream, CRC mismatch, or a structurally invalid \
         payload. The finding is attached to the file, not a uop, and \
         the remaining files keep linting.";
      i_example =
        "error[E108] lint_cut.hct:-: corrupt binary trace artifact: \
         truncated stream" };
    { i_code = "E110"; i_severity = Error;
      i_summary = "forward width-analysis soundness violation";
      i_detail =
        "A uop the forward known-bits pass classified provably narrow \
         has wide ground-truth values (Uop_soa.is_888_bits fails). The \
         abstract domain's contract — abstract values contain the \
         concrete ones — is broken; this is a hard analysis bug, never a \
         property of the trace.";
      i_example =
        "error[E110] gcc:uop-900: provably-narrow uop has wide ground \
         truth (analysis soundness bug)" };
    { i_code = "E111"; i_severity = Error;
      i_summary = "live-bits soundness violation (dead bit observable)";
      i_detail =
        "A result bit the backward live-bits pass claimed dead is \
         observable: flipping it and replaying the trace through \
         Semantics.eval changed a value some full-width consumer (load \
         address, store, branch, fp, or the trace exit) reads. The \
         backward transfer functions' demand contract is broken; like \
         E110 this is a hard analysis bug.";
      i_example =
        "error[E111] gcc:uop-433: provably-dead bits 0xff000000 are \
         observable at uop 441 (live-bits soundness bug)" };
    { i_code = "W201"; i_severity = Warning;
      i_summary = "realized instruction mix drifts from the generating profile";
      i_detail =
        "The realized class mix of the trace (loads, stores, branches, \
         mul/div, fp, alu) is compared against the profile it claims to \
         come from, scaled for the cmp each conditional-branch site \
         emits. Drift beyond the tolerance usually means the wrong \
         --benchmark was passed, not a broken trace.";
      i_example =
        "warning[W201] gcc:-: load mix 0.310 drifts from profile \"gcc\" \
         expectation 0.220 (tolerance 0.08)" };
    { i_code = "E201"; i_severity = Error;
      i_summary = "configuration fails Config.validate";
      i_detail =
        "The machine configuration violates a structural constraint \
         (zero widths, empty queues, narrow_bits out of range, ...). \
         Simulating it would be meaningless; the validator's message is \
         forwarded verbatim.";
      i_example = "error[E201] default:-: narrow_bits must be in 1..32" };
    { i_code = "W202"; i_severity = Warning;
      i_summary = "steering scheme is inert (rules on, helper cluster off)";
      i_detail =
        "The scheme enables steering rules (888/BR/LR/CR/CP/IR) while \
         the helper cluster itself is disabled: every uop will steer \
         wide and the rules can never fire. Valid to simulate — it is \
         the baseline — but almost certainly a misconfiguration when \
         rules are explicitly on.";
      i_example =
        "warning[W202] scheme:8_8_8:-: scheme enables steering rules but \
         the helper cluster is off (every uop will steer wide)" };
    { i_code = "W203"; i_severity = Warning;
      i_summary = "bidirectional bound below the forward bound (monotonicity)";
      i_detail =
        "The bidirectional fixpoint joins the forward known-bits pass \
         with the backward live-bits pass, so its provable set must \
         contain the forward one: bidir_provable_count >= \
         provable_count on every trace. analyze_bidir asserts this by \
         construction; seeing W203 means an analysis record was built or \
         mutated outside the normal pipeline.";
      i_example =
        "warning[W203] gcc:-: bidirectional provable bound 120 below the \
         forward bound 150 (monotonicity breach)" };
  ]

let explain code =
  let canon = String.uppercase_ascii (String.trim code) in
  List.find_opt (fun i -> String.equal i.i_code canon) catalogue

(* The README's lint table, generated from the same strings `hc_lint
   explain` prints so the two can never drift. *)
let readme_table () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "| code | severity | meaning |\n";
  Buffer.add_string b "|------|----------|---------|\n";
  List.iter
    (fun i ->
      Buffer.add_string b
        (Printf.sprintf "| %s | %s | %s |\n" i.i_code
           (severity_to_string i.i_severity)
           i.i_summary))
    catalogue;
  Buffer.contents b

(* Per-code emission cap: a single systematic corruption (every load's
   ul1 bit flipped, say) should not bury the report in thousands of
   copies of one finding. The overflow is summarized per code. *)
let report_cap = 5

type emitter = {
  file : string;
  mutable diags : diagnostic list;  (* newest first *)
  counts : (string, int) Hashtbl.t;
}

let emitter file = { file; diags = []; counts = Hashtbl.create 8 }

let emit e ~code ~severity ~loc fmt =
  Printf.ksprintf
    (fun message ->
      let n = (try Hashtbl.find e.counts code with Not_found -> 0) + 1 in
      Hashtbl.replace e.counts code n;
      if n <= report_cap then
        e.diags <- { code; severity; loc; message } :: e.diags)
    fmt

let uop_loc e (u : Uop.t) = Printf.sprintf "%s:uop-%d" e.file u.Uop.id

let finish e =
  let overflow =
    Hashtbl.fold
      (fun code n acc ->
        if n > report_cap then
          { code;
            severity = Info;
            loc = e.file ^ ":-";
            message =
              Printf.sprintf "%d further %s findings suppressed (showing %d)"
                (n - report_cap) code report_cap }
          :: acc
        else acc)
      e.counts []
  in
  List.rev e.diags @ List.sort compare overflow

(* ----- trace checks ----- *)

let check_sources e (u : Uop.t) (vals : Value.t option array) =
  List.iter2
    (fun src v ->
      match src with
      | Uop.Imm _ -> ()
      | Uop.Reg r -> (
        match vals.(Reg.to_index r) with
        | Some w when w <> v ->
          let code, what =
            if r = Reg.Eflags then ("E104", "flags")
            else ("E103", Reg.to_string r)
          in
          emit e ~code ~severity:Error ~loc:(uop_loc e u)
            "%s read %s but its last writer produced %s" what (Value.to_hex v)
            (Value.to_hex w)
        | Some _ | None -> () ))
    u.Uop.srcs u.Uop.src_vals

let check_uop e (u : Uop.t) (vals : Value.t option array) =
  (* structural flag pairing: a conditional branch consumes exactly the
     flags register, nothing else *)
  if u.Uop.op = Opcode.Branch_cond && u.Uop.srcs <> [ Uop.Reg Reg.Eflags ] then
    emit e ~code:"E104" ~severity:Error ~loc:(uop_loc e u)
      "conditional branch must read exactly the flags register";
  check_sources e u vals;
  if u.Uop.ul1_miss && not u.Uop.dl0_miss then
    emit e ~code:"E105" ~severity:Error ~loc:(uop_loc e u)
      "ul1_miss set without dl0_miss (miss monotonicity violated)";
  ( match Semantics.eval u.Uop.op u.Uop.src_vals with
  | Some r when r <> u.Uop.result ->
    emit e ~code:"E106" ~severity:Error ~loc:(uop_loc e u)
      "%s result %s but evaluating the sources gives %s"
      (Opcode.to_string u.Uop.op) (Value.to_hex u.Uop.result) (Value.to_hex r)
  | Some _ | None -> () );
  if Opcode.is_memory u.Uop.op then begin
    match u.Uop.src_vals with
    | base :: offset :: _ ->
      let agu = Value.add base offset in
      if u.Uop.mem_addr <> agu then
        emit e ~code:"E107" ~severity:Error ~loc:(uop_loc e u)
          "memory address %s but base + offset is %s"
          (Value.to_hex u.Uop.mem_addr) (Value.to_hex agu)
    | [] | [ _ ] ->
      emit e ~code:"E107" ~severity:Error ~loc:(uop_loc e u)
        "memory uop with fewer than two sources (base + offset expected)"
  end;
  (* same writeback the generator and the static pass use *)
  ( match u.Uop.dst with
  | Some d -> vals.(Reg.to_index d) <- Some u.Uop.result
  | None -> () );
  if Uop.writes_flags u then vals.(Reg.to_index Reg.Eflags) <- Some u.Uop.result

(* Expected realized mix, accounting for the cmp a conditional branch
   site emits alongside the branch itself: every class fraction is scaled
   by 1/(1 + f_cond) and the extra cmps land in the alu class. *)
let drift_tolerance = 0.08

let check_mix e (p : Profile.t) tr =
  let scale = 1. +. p.Profile.f_cond_branch in
  let alu_rest =
    1.
    -. (p.Profile.f_load +. p.Profile.f_store +. p.Profile.f_cond_branch
       +. p.Profile.f_uncond_branch +. p.Profile.f_mul +. p.Profile.f_div
       +. p.Profile.f_fp)
  in
  let expected =
    [ ("load", p.Profile.f_load /. scale);
      ("store", p.Profile.f_store /. scale);
      ("branch", (p.Profile.f_cond_branch +. p.Profile.f_uncond_branch) /. scale);
      ("mul_div", (p.Profile.f_mul +. p.Profile.f_div) /. scale);
      ("fp", p.Profile.f_fp /. scale);
      ("alu", (alu_rest +. p.Profile.f_cond_branch) /. scale) ]
  in
  let realized = Analysis.mix_digest tr in
  List.iter
    (fun (cls, want) ->
      match List.assoc_opt cls realized with
      | Some got when Float.abs (got -. want) > drift_tolerance ->
        emit e ~code:"W201" ~severity:Warning ~loc:(e.file ^ ":-")
          "%s mix %.3f drifts from profile %S expectation %.3f (tolerance %.2f)"
          cls got p.Profile.name want drift_tolerance
      | Some _ | None -> ())
    expected

(* Analysis soundness checks over a (possibly precomputed) bidirectional
   record. Taking the record as an argument lets the regression tests
   seed deliberately corrupt verdicts (a cleared live mask for E111, a
   hand-built non-monotone bound for W203) and pin that the gates trip —
   [check_trace] always passes a freshly computed one. *)
let analysis_checks e (bd : Static.bidir) tr =
  List.iter
    (fun (v : Static.violation) ->
      emit e ~code:"E110" ~severity:Error ~loc:(uop_loc e v.Static.uop)
        "provably-narrow uop has wide ground truth (analysis soundness bug)")
    (Static.soundness_violations bd.Static.base tr);
  List.iter
    (fun (v : Livebits.violation) ->
      emit e ~code:"E111" ~severity:Error ~loc:(uop_loc e v.Livebits.uop)
        "provably-dead bits 0x%x are observable at uop %d (live-bits \
         soundness bug)"
        v.Livebits.flipped v.Livebits.consumer_index)
    (Livebits.soundness_violations bd.Static.livebits tr);
  if bd.Static.bidir_provable_count < bd.Static.base.Static.provable_count then
    emit e ~code:"W203" ~severity:Warning ~loc:(e.file ^ ":-")
      "bidirectional provable bound %d below the forward bound %d \
       (monotonicity breach)"
      bd.Static.bidir_provable_count bd.Static.base.Static.provable_count

let check_analysis ?(file = "<trace>") bd tr =
  let e = emitter file in
  analysis_checks e bd tr;
  finish e

let check_trace ?(file = "<trace>") ?expected_profile ?(bits = 8) tr =
  let e = emitter file in
  let vals = Array.make Reg.count None in
  let prev_id = ref None in
  (* the per-uop checks are written over records: convert once *)
  Array.iter
    (fun u ->
      ( match !prev_id with
      | Some p when u.Uop.id <> p + 1 ->
        emit e ~code:"E101" ~severity:Error ~loc:(uop_loc e u)
          "uop id %d follows %d (ids must be dense)" u.Uop.id p
      | Some _ | None -> () );
      prev_id := Some u.Uop.id;
      check_uop e u vals)
    (Trace.uops tr);
  analysis_checks e (Static.analyze_bidir ~bits tr) tr;
  ( match expected_profile with
  | Some p -> check_mix e p tr
  | None -> () );
  finish e

(* A binary trace that fails to decode never reaches [check_trace] — the
   codec raises before a [Trace.t] exists — so the E108 finding is
   constructed directly from the decoder's complaint. *)
let corrupt_artifact ~file reason =
  {
    code = "E108";
    severity = Error;
    loc = file ^ ":-";
    message = Printf.sprintf "corrupt binary trace artifact: %s" reason;
  }

(* ----- configuration checks ----- *)

let scheme_inert (s : Config.scheme) =
  (not s.Config.helper)
  && (s.Config.s888 || s.Config.br || s.Config.lr || s.Config.cr
     || s.Config.cp || s.Config.ir <> Config.Ir_off)

let check_config ?(file = "<config>") (cfg : Config.t) =
  let e = emitter file in
  ( match Config.validate cfg with
  | Ok () -> ()
  | Error msg ->
    emit e ~code:"E201" ~severity:Error ~loc:(file ^ ":-") "%s" msg );
  if scheme_inert cfg.Config.scheme then
    emit e ~code:"W202" ~severity:Warning ~loc:(file ^ ":-")
      "scheme enables steering rules but the helper cluster is off (every \
       uop will steer wide)";
  finish e
