module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg
module Uop = Hc_isa.Uop
module Uop_soa = Hc_isa.Uop_soa
module Trace = Hc_trace.Trace

(* Forward abstract interpretation over a trace's def-use chains.

   The register file starts at [Absval.top] (sliced traces begin
   mid-program, so nothing is known about live-in values) and each uop is
   interpreted in order: source operands read the abstract register state
   (immediates are singletons), the result comes from the per-opcode
   transfer function, and writeback mirrors the generator exactly —
   destination register first, then the flags for flag-writing opcodes,
   both receiving the architected result. Ground-truth columns
   ([Uop_soa.result], [Uop_soa.src_val]) are never consulted, so the verdicts
   are what a compile-time pass could prove from the instruction stream
   alone.

   Soundness invariant: the abstract register state always contains the
   concrete register state, hence a uop classified provably narrow has
   narrow ground truth. [soundness_violations] checks exactly that (and
   only there is ground truth read); any hit is a hard analysis bug. *)

type t = {
  bits : int;
  first_id : int;
  provable : bool array;  (* by trace position: provably 8-8-8 *)
  steerable : bool array;  (* provable and reachable by the oracle scheme *)
  provable_count : int;
  steerable_count : int;
}

(* The set the static_888 oracle may steer: exactly the uops the dynamic
   8_8_8 rule can reach in Policy.decide — helper-capable opcodes minus
   branches (they go through the BR path) and stores (the MOB keeps them
   wide). *)
let oracle_eligible (op : Opcode.t) =
  Opcode.helper_capable op && (not (Opcode.is_branch op)) && op <> Opcode.Store

(* Analysis-pass instrumentation behind the ambient obs opt-in: the same
   one-atomic-load guard every other instrumentation point uses, so the
   passes cost nothing extra when observability is off. *)
let obs_pass ~pass ~uops ~provable ~elapsed_ns =
  Hc_obs.Registry.with_ambient (fun r ->
      Hc_obs.Registry.add
        (Hc_obs.Registry.counter r
           ~help:"Uops examined by the static width-analysis passes"
           ~labels:[ ("pass", pass) ]
           "hc_static_uops_analyzed_total")
        uops;
      Hc_obs.Registry.add
        (Hc_obs.Registry.counter r
           ~help:"Uops proven 8-8-8 safe, by analysis pass"
           ~labels:[ ("pass", pass) ]
           "hc_static_provable_total")
        provable;
      Hc_obs.Registry.observe
        (Hc_obs.Registry.histogram r
           ~help:"Wall time of one static-analysis pass (ns)"
           ~labels:[ ("pass", pass) ]
           "hc_static_analysis_ns")
        elapsed_ns)

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))

(* One forward walk over the packed columns. Besides the
   provable/steerable verdicts, optionally record per-uop facts the
   bidirectional pass consumes: narrowness of every abstract source
   (flattened, aligned with the SoA operand columns), narrowness of the
   abstract result, and forward-proven constant shift amounts. The two
   narrowness columns hold one byte a flag ('\001' narrow), not the
   word a [bool array] spends. *)
type forward_facts = {
  src_narrow : Bytes.t;  (* by flattened operand index (Uop_soa.src_base) *)
  result_narrow : Bytes.t;
  shift_amount : int array;  (* -1 unless a constant shift amount is proven *)
}

let set_flag col i b = Bytes.set col i (if b then '\001' else '\000')
let get_flag col i = Bytes.get col i <> '\000'

let analyze_fwd ?(bits = 8) ~facts (tr : Trace.t) =
  let soa = Trace.soa tr in
  let n = Uop_soa.length soa in
  let regs = Array.make Reg.count Absval.top in
  let eflags = Reg.to_index Reg.Eflags in
  let provable = Array.make n false in
  let steerable = Array.make n false in
  let provable_count = ref 0 and steerable_count = ref 0 in
  let ff =
    if facts then
      Some
        { src_narrow = Bytes.make (Uop_soa.src_base soa n) '\000';
          result_narrow = Bytes.make n '\000';
          shift_amount = Array.make n (-1) }
    else None
  in
  (* abstract value of the flattened operand at absolute index [j]:
     immediates are singletons, registers read the abstract state *)
  let abs_at j =
    let r = Uop_soa.src_reg soa j in
    if r < 0 then Absval.const (Uop_soa.src_val soa j) else regs.(r)
  in
  for i = 0 to n - 1 do
    let op = Uop_soa.op soa i in
    let lo = Uop_soa.src_base soa i and ns = Uop_soa.nsrcs soa i in
    let a0 = if ns >= 1 then abs_at lo else Absval.top in
    let a1 = if ns >= 2 then abs_at (lo + 1) else Absval.top in
    let result =
      match Absval.transfer2 op ~nsrcs:ns ~a0 ~a1 with
      | Some a -> a
      | None -> Absval.top
    in
    (* the 8-8-8 shape of Uop_soa.is_888_bits, proven instead of observed:
       every source narrow, and a narrow result whenever the uop produces
       anything observable *)
    let srcs_narrow = ref true in
    for j = lo to lo + ns - 1 do
      (* the first two operands were read above; an immediate's
         singleton is not rebuilt *)
      let a = if j = lo then a0 else if j = lo + 1 then a1 else abs_at j in
      let narrow = Absval.is_narrow ~bits a in
      if not narrow then srcs_narrow := false;
      match ff with Some f -> set_flag f.src_narrow j narrow | None -> ()
    done;
    let d = Uop_soa.dst_index soa i in
    let wf = Opcode.writes_flags op in
    let p =
      !srcs_narrow
      && ((d < 0 && not wf) || Absval.is_narrow ~bits result)
    in
    provable.(i) <- p;
    if p then incr provable_count;
    if p && oracle_eligible op then begin
      steerable.(i) <- true;
      incr steerable_count
    end;
    ( match ff with
    | Some f ->
      set_flag f.result_narrow i (Absval.is_narrow ~bits result);
      ( match op with
      | (Opcode.Shl | Opcode.Shr) when ns >= 2 ->
        f.shift_amount.(i) <- Absval.shift_amount a1
      | _ -> () )
    | None -> () );
    if d >= 0 then regs.(d) <- result;
    if wf then regs.(eflags) <- result
  done;
  ( { bits;
      first_id = (if n = 0 then 0 else Uop_soa.id soa 0);
      provable; steerable;
      provable_count = !provable_count;
      steerable_count = !steerable_count },
    ff )

let analyze ?(bits = 8) (tr : Trace.t) =
  let (t, _), ns = timed (fun () -> analyze_fwd ~bits ~facts:false tr) in
  obs_pass ~pass:"forward" ~uops:(Trace.length tr) ~provable:t.provable_count
    ~elapsed_ns:ns;
  t

(* Queries are keyed by dynamic uop id. Sliced traces start at a nonzero
   first_id, so the position is [id - first_id], or -1 outside the
   analyzed window — a foreign id must not read as a wide verdict. *)
let index_of t id =
  let i = id - t.first_id in
  if i >= 0 && i < Array.length t.provable then i else -1

let in_range t id = index_of t id >= 0

let verdict t id =
  let i = index_of t id in
  if i < 0 then None else Some t.provable.(i)

let provably_narrow t id =
  let i = index_of t id in
  i >= 0 && t.provable.(i)

let steerable_uop t id =
  let i = index_of t id in
  i >= 0 && t.steerable.(i)

type violation = {
  index : int;
  uop : Uop.t;
}

(* The in-tree soundness gate: the only place ground truth is read. The
   check walks the columns; a record is materialized only for the
   violations themselves (the bug path). *)
let soundness_violations t (tr : Trace.t) =
  let soa = Trace.soa tr in
  let acc = ref [] in
  for i = Uop_soa.length soa - 1 downto 0 do
    if t.provable.(i) && not (Uop_soa.is_888_bits ~bits:t.bits soa i) then
      acc := { index = i; uop = Uop_soa.to_uop soa i } :: !acc
  done;
  !acc

(* ----- the bidirectional fixpoint ----- *)

type bidir = {
  base : t;  (* the forward pass, unchanged *)
  livebits : Livebits.t;
  bidir_provable : bool array;
  bidir_steerable : bool array;
  bidir_provable_count : int;
  bidir_steerable_count : int;
}

(* Why joining the passes is sound: steering a uop to the narrow cluster
   makes it read the sign-extended low [bits] of each source and write
   back the sign-extended low [bits] of its result. Per source, that read
   is exact when the forward pass proved the source narrow (both sign
   patterns reproduce under sign extension); otherwise only bits >= bits
   can be misread, which is harmless exactly when this uop's backward
   demand on that source has no high bits — by [Livebits.backward_transfer]'s
   contract, source changes outside the demand mask cannot reach a live
   result bit. Per result, the writeback is exact when the forward result
   is narrow; otherwise only high result bits can be corrupted, harmless
   exactly when the live mask has no high bits (dead bits are
   unobservable downstream — the E111 obligation). So:

     bidir_safe  =  (forall src: fwd_narrow(src) \/ demand(src) ∧ hi = 0)
                 /\ (no observable result \/ fwd_narrow(result) \/ live ∧ hi = 0)

   Forward-provable uops satisfy every disjunct via their fwd_narrow arm,
   so bidir_provable ⊇ forward_provable holds by construction; the assert
   below keeps that monotonicity invariant executable on every trace. *)
let analyze_bidir ?(bits = 8) (tr : Trace.t) =
  let (base, ff), fwd_ns = timed (fun () -> analyze_fwd ~bits ~facts:true tr) in
  obs_pass ~pass:"forward" ~uops:(Trace.length tr)
    ~provable:base.provable_count ~elapsed_ns:fwd_ns;
  let ff = Option.get ff in
  let bd, bwd_ns =
    timed (fun () ->
        let lb =
          Livebits.analyze ~bits ~known_amount:ff.shift_amount tr
        in
        let soa = Trace.soa tr in
        let n = Uop_soa.length soa in
        let hi = Livebits.hi_mask ~bits in
        let bidir_provable = Array.make n false in
        let bidir_steerable = Array.make n false in
        let pc = ref 0 and sc = ref 0 in
        let scratch = ref (Array.make 16 0) in
        for i = 0 to n - 1 do
          let op = Uop_soa.op soa i in
          let lo = Uop_soa.src_base soa i and ns = Uop_soa.nsrcs soa i in
          let live = Livebits.live_mask lb ~index:i in
          if ns > Array.length !scratch then scratch := Array.make ns 0;
          Livebits.backward_transfer_into op ~nsrcs:ns
            ~amount:ff.shift_amount.(i) ~live !scratch;
          let demands = !scratch in
          let srcs_safe = ref true in
          for j = 0 to ns - 1 do
            if not (get_flag ff.src_narrow (lo + j) || demands.(j) land hi = 0)
            then
              srcs_safe := false
          done;
          let result_safe =
            (Uop_soa.dst_index soa i < 0 && not (Opcode.writes_flags op))
            || get_flag ff.result_narrow i
            || live land hi = 0
          in
          let safe = !srcs_safe && result_safe in
          (* monotonicity invariant: the join can only widen the provable
             set. [safe] subsumes the forward verdict structurally; assert
             it anyway so a broken transfer surfaces on every trace. *)
          assert ((not base.provable.(i)) || safe);
          bidir_provable.(i) <- safe;
          if safe then incr pc;
          if safe && oracle_eligible op then begin
            bidir_steerable.(i) <- true;
            incr sc
          end
        done;
        { base; livebits = lb; bidir_provable; bidir_steerable;
          bidir_provable_count = !pc; bidir_steerable_count = !sc })
  in
  obs_pass ~pass:"bidir" ~uops:(Trace.length tr)
    ~provable:bd.bidir_provable_count ~elapsed_ns:bwd_ns;
  bd

let bidir_verdict b id =
  let i = index_of b.base id in
  if i < 0 then None else Some b.bidir_provable.(i)

let bidir_provable_uop b id =
  let i = index_of b.base id in
  i >= 0 && b.bidir_provable.(i)
