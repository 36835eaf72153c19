module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg
module Semantics = Hc_isa.Semantics
module Uop_soa = Hc_isa.Uop_soa
module Value = Hc_isa.Value
module Width = Hc_isa.Width

(* A static program whose instructions name fixed registers, as real code
   does: the dependence structure and the width stability seen by the
   simulator's last-width predictor both emerge from the program text, not
   from per-instance sampling. The dynamic walk dwells in regions (program
   phases) and loops inside them, which is what gives the 256-entry tagless
   predictor of section 3.2 its locality.

   Registers are dense {!Reg.to_index} ints throughout, with [no_reg]
   (-1) for an absent one, the encoding {!Uop_soa}'s columns use. *)

let no_reg = -1

type kind =
  | K_load of { base : int; index : int (* no_reg = immediate offset *) }
  | K_store of { base : int; data : int }
  | K_alu of {
      op : Opcode.t;
      a : int;
      b : int;  (* no_reg = immediate *)
      extra : int;
          (* implicit IA-32 internal-state operand (segment base, flags
             merge input), or no_reg: usually wide, and what keeps the
             all-narrow 8-8-8 condition rare (paper section 3.2) *)
    }
  | K_shift of { op : Opcode.t; a : int; amount : int }
  | K_mov_imm
  | K_cond_branch of { back : int; cmp_src : int; backward : bool }
      (* [backward]: a loop back-edge; otherwise a forward if-branch whose
         taken direction skips a few statics *)
  | K_uncond_branch of int
  | K_mul of { a : int; b : int }
  | K_div of { a : int; b : int }
  | K_fp of { op : Opcode.t; a : int; b : int }
  | K_ptr_update of { r : int; inc : int }

type static = {
  s_index : int;
  s_kind : kind;
  s_dst : int;  (* no_reg = no destination *)
  s_tag : bool;  (* which width chain this static's result feeds *)
  s_width : Profile.width_character;  (* result width character (loads, movs) *)
  s_imm : Value.t;  (* fixed immediate operand where the kind uses one *)
  s_carry_local : bool;
      (* whether this site's base+offset arithmetic habitually stays within
         the low byte - a per-site property (array walk vs wide stride),
         which is what makes the CR last-value bit learnable *)
  mutable s_last_narrow : bool;  (* running state of a Mixed character *)
}

(* The uop being generated. Each step overwrites it in place; writeback
   reads it, and a kept slice copies it into the trace's columns. *)
type cursor = {
  mutable id : int;
  mutable pc : Value.t;
  mutable op : Opcode.t;
  mutable dst : int;  (* no_reg = no destination *)
  mutable result : Value.t;
  mutable mem_addr : Value.t;
  mutable flags : int;  (* Uop_soa.flag_* bits *)
  mutable nsrcs : int;
  src_regs : int array;  (* no_reg = immediate *)
  src_vals : Value.t array;
}

type state = {
  profile : Profile.t;
  rng : Rng.t;
  statics : static array;
  reg_vals : Value.t array;
  p_taken_backward : float;
  p_taken_forward : float;
  cur : cursor;
  mutable sp : int;
  mutable region_start : int;
  mutable region_len : int;
  mutable loop_floor : int;
      (* exited loops are never re-entered: a taken branch may not jump
         back past the fall-through point of the last exited loop, which
         keeps loop nests sequential instead of trapping the walk in the
         first nest of every region *)
  mutable next_id : int;
  mutable pending_branch : int;
      (* index of a conditional branch static whose flag-producing cmp was
         just emitted, or -1 *)
}

let indices = Array.map Reg.to_index

let data_regs = indices [| Reg.Eax; Reg.Ecx; Reg.Edx; Reg.Ebx;
                           Reg.Tmp 0; Reg.Tmp 1; Reg.Tmp 2; Reg.Tmp 3;
                           Reg.Tmp 4; Reg.Tmp 5; Reg.Tmp 6; Reg.Tmp 7 |]

(* Register allocation keeps width chains apart, as compilers in practice
   do with induction variables vs pointer temporaries: narrow chains live
   in one half of the register name space, wide chains in the other. This
   is what stops one wide value from contaminating every narrow chain in
   the region (and what makes last-width prediction learnable at all). *)
let narrow_pool = indices [| Reg.Eax; Reg.Ecx; Reg.Tmp 0; Reg.Tmp 1; Reg.Tmp 2; Reg.Tmp 3 |]

let wide_pool = indices [| Reg.Edx; Reg.Ebx; Reg.Tmp 4; Reg.Tmp 5; Reg.Tmp 6; Reg.Tmp 7 |]

let pointer_regs = indices [| Reg.Esp; Reg.Ebp; Reg.Esi; Reg.Edi |]

let eflags = Reg.to_index Reg.Eflags

let alu_ops = [| Opcode.Add; Opcode.Add; Opcode.Sub; Opcode.And; Opcode.Or; Opcode.Xor |]

let shift_ops = [| Opcode.Shl; Opcode.Shr |]

let fp_ops = [| Opcode.Fp_add; Opcode.Fp_add; Opcode.Fp_mul; Opcode.Fp_div |]

(* ----- static program construction ----- *)

(* The destination registers of the most recent statics of one width
   chain, newest first: a fixed ring of [recent_size] slots, so sources
   wire to nearby producers with the profile's dependence distance. *)
let recent_size = 24

type recent = { ring : int array; mutable newest : int; mutable count : int }

let recent () = { ring = Array.make recent_size 0; newest = 0; count = 0 }

let push_recent q r =
  q.newest <- (q.newest + 1) mod recent_size;
  q.ring.(q.newest) <- r;
  if q.count < recent_size then q.count <- q.count + 1

(* [k] = 0 is the newest entry *)
let nth_recent q k = q.ring.((q.newest - k + recent_size) mod recent_size)

(* Construction context: the profile's static-kind weights and [Mixed]
   character, built once, and the registers most recently written by
   each width chain (the narrow one also serves register-indexed
   addressing). *)
type build = {
  b_profile : Profile.t;
  b_rng : Rng.t;
  b_kinds :
    [ `Load | `Store | `Cond | `Uncond | `Mul | `Div | `Fp | `Shift
    | `Mov_imm | `Ptr | `Alu ] Rng.weights;
  b_mixed : Profile.width_character;
  b_recent_narrow : recent;
  b_recent_wide : recent;
}

let build_context (p : Profile.t) rng =
  let rest =
    1. -. (p.f_load +. p.f_store +. p.f_cond_branch +. p.f_uncond_branch
           +. p.f_mul +. p.f_div +. p.f_fp +. p.f_shift)
  in
  let f_mov_imm = rest *. 0.12 and f_ptr = rest *. 0.05 in
  let f_alu = rest -. f_mov_imm -. f_ptr in
  { b_profile = p;
    b_rng = rng;
    b_kinds =
      Rng.weights
        [ (p.f_load, `Load); (p.f_store, `Store); (p.f_cond_branch, `Cond);
          (p.f_uncond_branch, `Uncond); (p.f_mul, `Mul); (p.f_div, `Div);
          (p.f_fp, `Fp); (p.f_shift, `Shift); (f_mov_imm, `Mov_imm);
          (f_ptr, `Ptr); (f_alu, `Alu) ];
    b_mixed = Profile.Mixed p.mixed_flip;
    b_recent_narrow = recent ();
    b_recent_wide = recent () }

(* Real programs keep computation chains width-coherent: a byte-crunching
   loop reads byte values, pointer arithmetic reads pointers. Sources are
   therefore wired within the chain of the requested width, falling back
   across when that chain has no recent producer. *)
let source_reg b ~narrow =
  let primary, fallback =
    if narrow then (b.b_recent_narrow, b.b_recent_wide)
    else (b.b_recent_wide, b.b_recent_narrow)
  in
  let pool = if primary.count = 0 then fallback else primary in
  if pool.count = 0 then Rng.choice b.b_rng data_regs
  else begin
    let d = Rng.geometric b.b_rng b.b_profile.dep_distance_mean in
    nth_recent pool (min (d - 1) (pool.count - 1))
  end

let narrow_source_reg b =
  if b.b_recent_narrow.count = 0 then no_reg else nth_recent b.b_recent_narrow 0

let record_write b (s : static) =
  if s.s_dst <> no_reg then
    push_recent (if s.s_tag then b.b_recent_narrow else b.b_recent_wide) s.s_dst

let choose_dst rng ~tag = Rng.choice rng (if tag then narrow_pool else wide_pool)

let width_character b ~p_narrow =
  let p = b.b_profile and rng = b.b_rng in
  if Rng.bool rng p.p_mixed_width then b.b_mixed
  else if Rng.bool rng p_narrow then Profile.Stable_narrow
  else Profile.Stable_wide

let tag_of_character rng = function
  | Profile.Stable_narrow -> true
  | Profile.Stable_wide -> false
  | Profile.Mixed _ -> Rng.bool rng 0.5

let narrow_imm rng = Rng.int rng 0x40

let wide_imm rng = Value.mask32 (0x0001_0000 lor (Rng.int rng 0xFFFF lsl 8))

(* One static. The [let]s draw in stream order: reordering any two draws
   changes every trace. *)
let make_static b i =
  let p = b.b_profile and rng = b.b_rng in
  let base =
    { s_index = i; s_kind = K_mov_imm; s_dst = no_reg; s_tag = false;
      s_width = Profile.Stable_narrow; s_imm = 0; s_carry_local = false;
      s_last_narrow = true }
  in
  let s =
    match Rng.pick rng b.b_kinds with
    | `Load ->
      let index =
        if Rng.bool rng p.p_narrow_index then narrow_source_reg b else no_reg
      in
      let w = width_character b ~p_narrow:p.p_narrow_load in
      let tag = tag_of_character rng w in
      let carry_local = Rng.bool rng p.p_carry_local_load in
      let dst = choose_dst rng ~tag in
      let base_reg = Rng.choice rng pointer_regs in
      { base with
        s_kind = K_load { base = base_reg; index }; s_dst = dst; s_width = w;
        s_tag = tag; s_carry_local = carry_local }
    | `Store ->
      let carry_local = Rng.bool rng p.p_carry_local_load in
      let data = source_reg b ~narrow:(Rng.bool rng p.p_narrow_chain) in
      let base_reg = Rng.choice rng pointer_regs in
      { base with
        s_kind = K_store { base = base_reg; data }; s_carry_local = carry_local }
    | `Cond ->
      let imm = if Rng.bool rng 0.85 then narrow_imm rng else wide_imm rng in
      let backward = Rng.bool rng 0.5 in
      (* loop-exit compares read induction variables: narrow chains *)
      let cmp_src = source_reg b ~narrow:(Rng.bool rng 0.85) in
      let back = Rng.geometric rng p.loop_back_mean in
      { base with s_kind = K_cond_branch { back; cmp_src; backward }; s_imm = imm }
    | `Uncond -> { base with s_kind = K_uncond_branch (1 + Rng.int rng 8) }
    | `Mul ->
      let dst = choose_dst rng ~tag:false in
      let b_reg = source_reg b ~narrow:true in
      let a = source_reg b ~narrow:false in
      { base with s_kind = K_mul { a; b = b_reg }; s_dst = dst }
    | `Div ->
      let dst = choose_dst rng ~tag:false in
      let b_reg = source_reg b ~narrow:true in
      let a = source_reg b ~narrow:false in
      { base with s_kind = K_div { a; b = b_reg }; s_dst = dst }
    | `Fp ->
      let dst = choose_dst rng ~tag:false in
      let b_reg = source_reg b ~narrow:false in
      let a = source_reg b ~narrow:false in
      let op = Rng.choice rng fp_ops in
      { base with s_kind = K_fp { op; a; b = b_reg }; s_dst = dst }
    | `Shift ->
      let tag = Rng.bool rng p.p_narrow_chain in
      let dst = choose_dst rng ~tag in
      let amount = 1 + Rng.int rng 4 in
      let a = source_reg b ~narrow:tag in
      let op = Rng.choice rng shift_ops in
      { base with s_kind = K_shift { op; a; amount }; s_dst = dst; s_tag = tag }
    | `Mov_imm ->
      let w = width_character b ~p_narrow:p.p_narrow_imm in
      let tag = tag_of_character rng w in
      let dst = choose_dst rng ~tag in
      { base with s_kind = K_mov_imm; s_dst = dst; s_width = w; s_tag = tag }
    | `Ptr ->
      let r = Rng.choice rng pointer_regs in
      let inc = 4 * (1 + Rng.int rng 0x40) in
      { base with s_kind = K_ptr_update { r; inc }; s_dst = r }
    | `Alu ->
      let extra =
        if Rng.bool rng p.p_extra_operand then Rng.choice rng pointer_regs
        else no_reg
      in
      (* uops carrying implicit machine-state operands are address-class
         work: they belong to wide chains *)
      let narrow_chain = extra = no_reg && Rng.bool rng p.p_narrow_chain in
      let second =
        if Rng.bool rng p.p_second_src_imm then no_reg
        else begin
          (* chains are width-coherent but not hermetic: a quarter of
             register pairs mix widths (address+offset, mask+word), which
             is where the paper's "one narrow operand" class comes from *)
          let cross = Rng.bool rng 0.25 in
          source_reg b ~narrow:(if cross then not narrow_chain else narrow_chain)
        end
      in
      let carry_local = Rng.bool rng p.p_carry_local_arith in
      let imm =
        if narrow_chain || Rng.bool rng p.p_narrow_imm then narrow_imm rng
        else wide_imm rng
      in
      let dst = choose_dst rng ~tag:narrow_chain in
      let a = source_reg b ~narrow:narrow_chain in
      let op = Rng.choice rng alu_ops in
      { base with
        s_kind = K_alu { op; a; b = second; extra }; s_dst = dst;
        s_tag = narrow_chain; s_imm = imm; s_carry_local = carry_local }
  in
  record_write b s;
  s

let create (p : Profile.t) =
  ( match Profile.validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Generator.create: " ^ msg) );
  let rng = Rng.create p.seed in
  let b = build_context p rng in
  let statics = Array.init p.static_size (fun i -> make_static b i) in
  let reg_vals = Array.make Reg.count 0 in
  Array.iteri
    (fun i r ->
      reg_vals.(r) <-
        Value.mask32 (0x0800_0000 + (i * 0x0100_0000) + Rng.int rng 0xFFFF))
    pointer_regs;
  Array.iter (fun r -> reg_vals.(r) <- Rng.int rng 0x40) data_regs;
  (* loops iterate many times, so back-edges are strongly taken; forward
     if-branches compensate so the overall taken rate tracks the profile *)
  { profile = p; rng; statics; reg_vals;
    p_taken_backward = Float.min 0.95 (p.p_taken +. 0.26);
    p_taken_forward = Float.max 0.05 (p.p_taken -. 0.26);
    cur =
      { id = 0; pc = 0; op = Opcode.Nop; dst = no_reg; result = 0; mem_addr = 0;
        flags = 0; nsrcs = 0; src_regs = Array.make 3 no_reg;
        src_vals = Array.make 3 0 };
    sp = 0; region_start = 0; region_len = min 128 p.static_size;
    loop_floor = 0; next_id = 0; pending_branch = -1 }

(* ----- dynamic value machinery ----- *)

(* Narrow values in real programs are loop counters, small offsets, flags
   and characters: heavily skewed towards tiny magnitudes. Keeping them
   small keeps narrow+narrow arithmetic narrow most of the time, with an
   occasional genuine overflow into 9 bits - the paper's fatal
   width-misprediction source. *)
let draw_narrow rng =
  if Rng.bool rng 0.15 then Value.mask32 (0xFFFF_FFF0 lor Rng.int rng 0x10)
  else if Rng.bool rng 0.55 then Rng.int rng 0x20
  else if Rng.bool rng 0.6 then Rng.int rng 0x80
  else Rng.int rng 0x100

let draw_wide rng =
  let v = Value.mask32 ((Rng.int rng 0x7FFF_FFFF lsl 8) lor Rng.int rng 0x100) in
  if Width.is_narrow v then v lor 0x0001_0000 else v

let draw_by_character st (s : static) =
  match s.s_width with
  | Profile.Stable_narrow -> draw_narrow st.rng
  | Profile.Stable_wide -> draw_wide st.rng
  | Profile.Mixed flip ->
    if Rng.bool st.rng flip then s.s_last_narrow <- not s.s_last_narrow;
    if s.s_last_narrow then draw_narrow st.rng else draw_wide st.rng

let reg_val st r = st.reg_vals.(r)

let pc_of_static (s : static) = Value.mask32 (0x0040_0000 + (4 * s.s_index))

(* Offset immediate for a wide + imm addition: drawn so the low-byte
   addition carries exactly when the given carry-locality probability says
   it should. Synthetic traces let us enforce the profile's carry locality
   constructively here; register-indexed addresses take whatever the index
   register holds. *)
let adherence = 0.995
(* how faithfully a site follows its habitual carry behaviour *)

let straying = 1. -. adherence

let local_now st ~site_local =
  Rng.bool st.rng (if site_local then adherence else straying)

let local_offset st ~site_local partial_sum =
  let low = partial_sum land 0xFF in
  if local_now st ~site_local then Rng.int st.rng (max 1 (0x100 - low))
  else begin
    let need = 0x100 - low in
    if need <= 0xFF then need + Rng.int st.rng (0x100 - need)
    else 0x100 + Rng.int st.rng 0x100
  end

(* ----- the cursor ----- *)

(* Open the next uop: result, address and flags start at 0 and there are
   no operands yet. *)
let start st ~pc op ~dst =
  let c = st.cur in
  c.id <- st.next_id;
  st.next_id <- st.next_id + 1;
  c.pc <- pc;
  c.op <- op;
  c.dst <- dst;
  c.result <- 0;
  c.mem_addr <- 0;
  c.flags <- 0;
  c.nsrcs <- 0;
  c

let src c reg v =
  c.src_regs.(c.nsrcs) <- reg;
  c.src_vals.(c.nsrcs) <- v;
  c.nsrcs <- c.nsrcs + 1

let reg_src st c r = src c r (reg_val st r)

let writeback st =
  let c = st.cur in
  if c.dst <> no_reg then st.reg_vals.(c.dst) <- c.result;
  if Opcode.writes_flags c.op then st.reg_vals.(eflags) <- c.result

(* ----- the dynamic walk ----- *)

let new_region st =
  let n = Array.length st.statics in
  st.region_start <- Rng.int st.rng n;
  st.region_len <- min n (48 + Rng.int st.rng 160);
  st.sp <- st.region_start;
  st.loop_floor <- st.region_start

let region_end st =
  min (Array.length st.statics) (st.region_start + st.region_len)

(* Sequential flow within the current region; at the region's end either
   run it again (an outer loop) or move to a fresh region (a call or a new
   program phase). *)
let advance st =
  let next = st.sp + 1 in
  if next >= region_end st then begin
    if Rng.bool st.rng 0.85 then begin
      st.sp <- st.region_start;
      st.loop_floor <- st.region_start
    end
    else new_region st
  end
  else st.sp <- next

let gen_cmp st (s : static) =
  match s.s_kind with
  | K_cond_branch { cmp_src; _ } ->
    let c = start st ~pc:(Value.add (pc_of_static s) 2) Opcode.Cmp ~dst:no_reg in
    let rv = reg_val st cmp_src in
    src c cmp_src rv;
    src c no_reg s.s_imm;
    c.result <- Value.sub rv s.s_imm
  | K_load _ | K_store _ | K_alu _ | K_shift _ | K_mov_imm
  | K_uncond_branch _ | K_mul _ | K_div _ | K_fp _ | K_ptr_update _ ->
    assert false

(* Two register sources; the result is what [op] computes from them. *)
let binary st (s : static) op a b =
  let c = start st ~pc:(pc_of_static s) op ~dst:s.s_dst in
  let av = reg_val st a and bv = reg_val st b in
  src c a av;
  src c b bv;
  advance st;
  c.result <- Semantics.eval2 op av bv

let gen_uop st (s : static) =
  let p = st.profile in
  let pc = pc_of_static s in
  match s.s_kind with
  | K_load { base; index } ->
    let c = start st ~pc Opcode.Load ~dst:s.s_dst in
    let base_val = reg_val st base in
    reg_src st c base;
    let offset_val =
      if index <> no_reg then reg_val st index
      else local_offset st ~site_local:s.s_carry_local base_val
    in
    src c index offset_val;
    c.mem_addr <- Value.add base_val offset_val;
    c.result <- draw_by_character st s;
    let dl0_miss = Rng.bool st.rng p.p_dl0_miss in
    let ul1_miss = dl0_miss && Rng.bool st.rng p.p_ul1_miss in
    (* miss monotonicity is a construction-time invariant (hc_lint E105):
       a UL1 miss can only happen on the DL0 miss path *)
    assert ((not ul1_miss) || dl0_miss);
    c.flags <-
      (if dl0_miss then Uop_soa.flag_dl0 else 0)
      lor if ul1_miss then Uop_soa.flag_ul1 else 0;
    advance st
  | K_store { base; data } ->
    let c = start st ~pc Opcode.Store ~dst:no_reg in
    let base_val = reg_val st base in
    let off = local_offset st ~site_local:s.s_carry_local base_val in
    reg_src st c base;
    src c no_reg off;
    reg_src st c data;
    c.result <- reg_val st data;
    c.mem_addr <- Value.add base_val off;
    advance st
  | K_alu { op; a; b; extra } ->
    let c = start st ~pc op ~dst:s.s_dst in
    let av = reg_val st a in
    src c a av;
    let bv =
      if b <> no_reg then reg_val st b
      else if op = Opcode.Add && not (Width.is_narrow av) then
        local_offset st ~site_local:s.s_carry_local av
      else if op = Opcode.Sub && not (Width.is_narrow av) then begin
        (* borrow-free when the site is habitually local *)
        let low = av land 0xFF in
        if local_now st ~site_local:s.s_carry_local then Rng.int st.rng (low + 1)
        else if low < 0xFF then low + 1 + Rng.int st.rng (0xFF - low)
        else 0x100 + Rng.int st.rng 0x1000
      end
      else s.s_imm
    in
    src c b bv;
    if extra <> no_reg then reg_src st c extra;
    (* the implicit operand is machine state, not an arithmetic input *)
    c.result <- Semantics.eval2 op av bv;
    advance st
  | K_shift { op; a; amount } ->
    let c = start st ~pc op ~dst:s.s_dst in
    let av = reg_val st a in
    src c a av;
    src c no_reg amount;
    c.result <- Semantics.eval2 op av amount;
    advance st
  | K_mov_imm ->
    let c = start st ~pc Opcode.Mov ~dst:s.s_dst in
    let v = draw_by_character st s in
    src c no_reg v;
    c.result <- v;
    advance st
  | K_cond_branch { back; backward; _ } ->
    let c = start st ~pc Opcode.Branch_cond ~dst:no_reg in
    let flags = reg_val st eflags in
    let taken =
      Rng.bool st.rng (if backward then st.p_taken_backward else st.p_taken_forward)
    in
    let mispred = Rng.bool st.rng p.p_mispredict in
    ( if backward then begin
        let body_start = max st.loop_floor (st.sp - back) in
        if taken && st.sp - body_start >= 4 then st.sp <- body_start
        else begin
          (* the loop exits - or its body would be degenerate (a one-uop
             loop would make branch pairs dominate the stream): never jump
             back into it again *)
          st.loop_floor <- st.sp;
          advance st
        end
      end
      else begin
        (* forward if-branch: taken skips a short then-block *)
        if taken then begin
          let target = st.sp + 1 + (back mod 8) in
          if target >= region_end st then advance st else st.sp <- target
        end
        else advance st
      end );
    src c eflags flags;
    c.result <- flags;
    c.flags <-
      (if taken then Uop_soa.flag_taken else 0)
      lor if mispred then Uop_soa.flag_mispredicted else 0
  | K_uncond_branch fwd ->
    let c = start st ~pc Opcode.Branch_uncond ~dst:no_reg in
    if Rng.bool st.rng 0.03 then new_region st
    else begin
      let target = st.sp + fwd in
      if target >= region_end st then begin
        if Rng.bool st.rng 0.85 then begin
          st.sp <- st.region_start;
          st.loop_floor <- st.region_start
        end
        else new_region st
      end
      else st.sp <- target
    end;
    c.flags <- Uop_soa.flag_taken
  | K_mul { a; b } -> binary st s Opcode.Mul a b
  | K_div { a; b } -> binary st s Opcode.Div a b
  | K_fp { op; a; b } ->
    let c = start st ~pc op ~dst:s.s_dst in
    reg_src st c a;
    reg_src st c b;
    c.result <- draw_wide st.rng;
    advance st
  | K_ptr_update { r; inc } ->
    let c = start st ~pc Opcode.Add ~dst:r in
    let rv = reg_val st r in
    src c r rv;
    src c no_reg inc;
    c.result <- Value.add rv inc;
    advance st

(* Generate the next uop into [st.cur] and write its result back. *)
let step st =
  ( if st.pending_branch >= 0 then begin
      let branch_static = st.statics.(st.pending_branch) in
      st.pending_branch <- -1;
      gen_uop st branch_static
    end
    else begin
      let s = st.statics.(st.sp) in
      match s.s_kind with
      | K_cond_branch _ ->
        (* the flag-producing cmp goes first; the branch follows *)
        st.pending_branch <- st.sp;
        gen_cmp st s
      | K_load _ | K_store _ | K_alu _ | K_shift _ | K_mov_imm
      | K_uncond_branch _ | K_mul _ | K_div _ | K_fp _ | K_ptr_update _ ->
        gen_uop st s
    end );
  writeback st

(* The next [length] uops, straight into the trace's columns. *)
let fill st ~length =
  let b = Uop_soa.builder length and c = st.cur in
  for _ = 1 to length do
    step st;
    for k = 0 to c.nsrcs - 1 do
      Uop_soa.push_src b ~reg:c.src_regs.(k) ~v:c.src_vals.(k)
    done;
    Uop_soa.close_uop b ~id:c.id ~pc:c.pc ~op:(Opcode.to_index c.op) ~dst:c.dst
      ~result:c.result ~mem_addr:c.mem_addr ~flags:c.flags
  done;
  Trace.of_soa ~name:st.profile.name ~profile:st.profile (Uop_soa.build b)

let generate ?(length = 50_000) p = fill (create p) ~length

let generate_sliced ?(length = 50_000) p =
  let st = create p in
  for _ = 1 to 3 * length / 7 do
    step st
  done;
  fill st ~length
