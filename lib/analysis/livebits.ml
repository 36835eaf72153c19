module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg
module Uop = Hc_isa.Uop
module Uop_soa = Hc_isa.Uop_soa
module Semantics = Hc_isa.Semantics
module Trace = Hc_trace.Trace

(* Backward demand (live-bits) analysis over a trace's def-use chains.

   Walking the trace backward, [demand.(r)] is the mask of bits of
   register [r] some later uop (or the trace exit) still consumes. Each
   uop first collects the live mask of its own result (the demand on its
   destination, plus the flags demand when it writes them), then kills
   the registers it writes, then pushes demand onto its sources through a
   per-opcode backward transfer — the dual of [Absval.transfer]'s forward
   functions.

   Everything is conservative toward full width: the trace exit demands
   all 32 bits of every register (a slice ends mid-program, so anything
   could be live-out), and opcodes whose result [Semantics.eval] cannot
   compute — loads (the address decides which value arrives), stores,
   branches, floating point — consume their sources at full width.

   The payoff is the dual narrowness fact the forward pass cannot see: a
   result may be wide in ground truth yet *dead* above bit [bits]-1, in
   which case executing the producer narrow changes nothing any consumer
   observes. [soundness_violations] checks exactly that claim against the
   concrete evaluator. *)

let mask32 = 0xFFFF_FFFF

let eflags = Reg.to_index Reg.Eflags

type t = {
  bits : int;
  first_id : int;
  live : int array;  (* per trace position: result bits consumed downstream *)
}

let low_bits_upto m =
  (* smallest down-closed mask covering [m]: carries in add/sub/mul ripple
     strictly upward, so result bits <= msb(m) depend on source bits
     <= msb(m) and nothing higher *)
  if m = 0 then 0
  else
    let rec msb i = if m lsr i <> 0 then i else msb (i - 1) in
    let b = msb 31 in
    if b >= 31 then mask32 else (1 lsl (b + 1)) - 1

(* Does [Semantics.eval op] compute a result for an [nsrcs]-operand uop?
   Mirrors the evaluator's binary/unary operand guards exactly, without
   allocating the probe list. *)
let eval_computable (op : Opcode.t) ~nsrcs =
  match op with
  | Mov | Copy -> nsrcs >= 1
  | Add | Sub | And | Or | Xor | Shl | Shr | Cmp | Lea | Mul | Div -> nsrcs >= 2
  | Load | Store | Branch_cond | Branch_uncond | Fp_add | Fp_mul | Fp_div
  | Nop -> false

(* [out.(0)] and [out.(1)] (those below [nsrcs]) get [d0] and [d1]; any
   further source gets [rest]. *)
let fill_demands (out : int array) ~nsrcs d0 d1 rest =
  for i = 0 to nsrcs - 1 do
    out.(i) <- (if i = 0 then d0 else if i = 1 then d1 else rest)
  done

(* The demand a uop with live result mask [live] places on each of its
   [nsrcs] sources. [amount] is the shift amount when it is provably
   constant (immediate operand, or proven by the forward pass) and -1
   otherwise; unknown amounts force full demand on the shifted value.
   Soundness contract (fuzzed in test_fuzz.ml): changing source bits
   outside the returned masks leaves the result bits inside [live]
   unchanged under [Semantics.eval]. *)
let backward_transfer_into op ~nsrcs ~amount ~live (out : int array) =
  if nsrcs = 0 then ()
  else if live = 0 then begin
    (* a fully dead computed result consumes nothing; full-width
       consumers (eval = None) never have live = 0 treated this way *)
    let d = if eval_computable op ~nsrcs then 0 else mask32 in
    fill_demands out ~nsrcs d d d
  end
  else
    match (op : Opcode.t) with
    | And | Or | Xor | Mov | Copy ->
      (* bitwise: result bit i reads exactly source bits i *)
      fill_demands out ~nsrcs live live 0
    | Add | Sub | Cmp | Lea | Mul ->
      (* carries ripple upward only (sub via a + ~b + 1; mul partial
         products): the down-closure of the live mask covers every
         source bit that can reach a live result bit *)
      let d = low_bits_upto live in
      fill_demands out ~nsrcs d d 0
    | Shl ->
      fill_demands out ~nsrcs
        (if amount >= 0 then live lsr amount else mask32)
        0x1F 0
    | Shr ->
      fill_demands out ~nsrcs
        (if amount >= 0 then (live lsl amount) land mask32 else mask32)
        0x1F 0
    | Div ->
      (* quotient bits mix source bits across positions; no useful dual *)
      fill_demands out ~nsrcs mask32 mask32 0
    | Load | Store | Branch_cond | Branch_uncond | Fp_add | Fp_mul | Fp_div
    | Nop ->
      (* no computable result: the machine (memory system, control flow,
         fp datapath) reads these sources at full width *)
      fill_demands out ~nsrcs mask32 mask32 mask32

let backward_transfer op ~nsrcs ~amount ~live =
  let out = Array.make nsrcs 0 in
  backward_transfer_into op ~nsrcs ~amount ~live out;
  Array.to_list out

(* Shift amounts the backward pass can treat as constant without any
   forward information: immediate operands (masked to the 5 bits the
   concrete semantics read), -1 otherwise; the second operand is an
   immediate exactly when its register column holds -1. *)
let imm_shift_amount_soa soa i =
  if Uop_soa.nsrcs soa i >= 2 then begin
    let j = Uop_soa.src_base soa i + 1 in
    if Uop_soa.src_reg soa j = -1 then Uop_soa.src_val soa j land 31 else -1
  end
  else -1

let analyze ?(bits = 8) ?known_amount (tr : Trace.t) =
  let soa = Trace.soa tr in
  let n = Uop_soa.length soa in
  let live = Array.make n 0 in
  (* trace-exit demand: full width on every register *)
  let demand = Array.make Reg.count mask32 in
  let scratch = ref (Array.make 16 0) in
  for i = n - 1 downto 0 do
    let op = Uop_soa.op soa i in
    let d = Uop_soa.dst_index soa i in
    let wf = Opcode.writes_flags op in
    let l =
      (if d >= 0 then demand.(d) else 0) lor if wf then demand.(eflags) else 0
    in
    live.(i) <- l;
    (* kill before gen: a uop reading its own destination register sees
       the demand of *its* consumers on the source occurrence *)
    if d >= 0 then demand.(d) <- 0;
    if wf then demand.(eflags) <- 0;
    let amount =
      match known_amount with
      | Some a when a.(i) >= 0 -> a.(i)
      | Some _ | None -> imm_shift_amount_soa soa i
    in
    let lo = Uop_soa.src_base soa i and ns = Uop_soa.nsrcs soa i in
    if ns > Array.length !scratch then scratch := Array.make ns 0;
    backward_transfer_into op ~nsrcs:ns ~amount ~live:l !scratch;
    for j = 0 to ns - 1 do
      let r = Uop_soa.src_reg soa (lo + j) in
      if r >= 0 then demand.(r) <- demand.(r) lor (!scratch).(j)
    done
  done;
  { bits; first_id = (if n = 0 then 0 else Uop_soa.id soa 0); live }

let live_mask t ~index = t.live.(index)

let hi_mask ~bits =
  if bits >= 32 then 0 else mask32 land lnot ((1 lsl bits) - 1)

(* Bits of uop [i]'s result the analysis claims dead above the narrow
   cut: flipping any of them must be unobservable downstream. *)
let dead_high t ~index = hi_mask ~bits:t.bits land lnot t.live.(index) land mask32

(* ----- differential soundness check ----- *)

type violation = {
  index : int;  (* position of the mutated producer *)
  uop : Uop.t;
  consumer_index : int;  (* position where the mutation became observable *)
  flipped : int;  (* the dead-bit mask that was flipped *)
}

(* Taint-bounded forward replay: flip every claimed-dead high bit of uop
   [i]'s result at once, then re-evaluate downstream per Semantics.eval,
   tracking only the registers whose value now differs from ground truth
   (the trace's own operand values and results are the ground truth, so
   the fork carries just a sparse overlay: [taint.(r)] is register [r]'s
   forked value, or -1 while it agrees with ground truth). The mutation
   is a violation iff a full-width consumer (an opcode the evaluator
   cannot compute: load address, store, branch, fp) reads a differing
   register, or any difference survives to the trace exit. The replay
   stops as soon as the overlay drains — overwrites kill taint — which
   keeps the sweep near-linear on real traces. It reads the trace's
   columns; only a reported violation builds a record. *)
let check_mutation soa ~index ~flipped =
  let n = Uop_soa.length soa in
  let taint = Array.make Reg.count (-1) and tainted = ref 0 in
  let clear r =
    if taint.(r) >= 0 then begin
      taint.(r) <- -1;
      decr tainted
    end
  in
  let set_taint r v truth =
    if v land mask32 = truth land mask32 then clear r
    else begin
      if taint.(r) < 0 then incr tainted;
      taint.(r) <- v land mask32
    end
  in
  (* the uop at [i] now produces [v]: taint (or untaint) what it writes *)
  let write i v =
    let truth = Uop_soa.result soa i and d = Uop_soa.dst_index soa i in
    if d >= 0 then set_taint d v truth;
    if Uop_soa.writes_flags soa i then set_taint eflags v truth
  in
  write index (Uop_soa.result soa index lxor flipped);
  let result = ref (-1) in
  let j = ref (index + 1) in
  while !result < 0 && !tainted > 0 && !j < n do
    let i = !j in
    let lo = Uop_soa.src_base soa i and ns = Uop_soa.nsrcs soa i in
    (* operand [k]'s value in the fork *)
    let forked k =
      let r = Uop_soa.src_reg soa (lo + k) in
      if r >= 0 && taint.(r) >= 0 then taint.(r) else Uop_soa.src_val soa (lo + k)
    in
    let reads_tainted = ref false in
    for k = lo to lo + ns - 1 do
      let r = Uop_soa.src_reg soa k in
      if r >= 0 && taint.(r) >= 0 then reads_tainted := true
    done;
    if !reads_tainted then begin
      let op = Uop_soa.op soa i in
      if not (eval_computable op ~nsrcs:ns) then
        (* full-width consumer observed a differing value *)
        result := i
      else
        write i (Semantics.eval2 op (forked 0) (if ns >= 2 then forked 1 else 0))
    end
    else begin
      (* writes without tainted reads recompute ground truth: overwrite
         kills the taint *)
      let d = Uop_soa.dst_index soa i in
      if d >= 0 then clear d;
      if Uop_soa.writes_flags soa i then clear eflags
    end;
    incr j
  done;
  if !result >= 0 then Some !result
  else if !tainted > 0 then
    (* trace exit demands full width: surviving taint is observable *)
    Some n
  else None

let soundness_violations t (tr : Trace.t) =
  let soa = Trace.soa tr in
  let acc = ref [] in
  for i = Uop_soa.length soa - 1 downto 0 do
    if Uop_soa.has_dest soa i || Uop_soa.writes_flags soa i then begin
      let flipped = dead_high t ~index:i in
      if flipped <> 0 then
        match check_mutation soa ~index:i ~flipped with
        | Some c ->
          acc :=
            { index = i; uop = Uop_soa.to_uop soa i; consumer_index = c; flipped }
            :: !acc
        | None -> ()
    end
  done;
  !acc
