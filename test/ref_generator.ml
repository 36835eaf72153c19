(* The record-building trace generator, kept verbatim as the reference
   the column-writing [Hc_trace.Generator] must match uop for uop: every
   draw, every value and every flag. Only the module aliases below and
   the final packing (this file packs its records with
   [Uop_soa.of_uops]) differ from the version it was copied from. *)

module Profile = Hc_trace.Profile
module Rng = Hc_trace.Rng
module Trace = Hc_trace.Trace
module Uop_soa = Hc_isa.Uop_soa

module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg
module Uop = Hc_isa.Uop
module Value = Hc_isa.Value
module Width = Hc_isa.Width

(* A static program whose instructions name fixed registers, as real code
   does: the dependence structure and the width stability seen by the
   simulator's last-width predictor both emerge from the program text, not
   from per-instance sampling. The dynamic walk dwells in regions (program
   phases) and loops inside them, which is what gives the 256-entry tagless
   predictor of section 3.2 its locality. *)

type kind =
  | K_load of { base : Reg.t; index : Reg.t option }
  | K_store of { base : Reg.t; data : Reg.t }
  | K_alu of {
      op : Opcode.t;
      a : Reg.t;
      b : Reg.t option;  (* None = immediate *)
      narrow_chain : bool;  (* which width chain this static belongs to *)
      extra : Reg.t option;
          (* implicit IA-32 internal-state operand (segment base, flags
             merge input): usually wide, and what keeps the all-narrow
             8-8-8 condition rare (paper section 3.2) *)
    }
  | K_shift of { op : Opcode.t; a : Reg.t; amount : int }
  | K_mov_imm
  | K_cond_branch of { back : int; cmp_src : Reg.t; backward : bool }
      (* [backward]: a loop back-edge; otherwise a forward if-branch whose
         taken direction skips a few statics *)
  | K_uncond_branch of int
  | K_mul of { a : Reg.t; b : Reg.t }
  | K_div of { a : Reg.t; b : Reg.t }
  | K_fp of { op : Opcode.t; a : Reg.t; b : Reg.t }
  | K_ptr_update of { r : Reg.t; inc : int }

type static = {
  s_index : int;
  s_kind : kind;
  s_dst : Reg.t option;
  s_tag : bool;  (* which width chain this static's result feeds *)
  s_width : Profile.width_character;  (* result width character (loads, movs) *)
  s_imm : Value.t;  (* fixed immediate operand where the kind uses one *)
  s_carry_local : bool;
      (* whether this site's base+offset arithmetic habitually stays within
         the low byte - a per-site property (array walk vs wide stride),
         which is what makes the CR last-value bit learnable *)
  mutable s_last_narrow : bool;  (* running state of a Mixed character *)
}

type state = {
  profile : Profile.t;
  rng : Rng.t;
  statics : static array;
  reg_vals : Value.t array;
  mutable sp : int;
  mutable region_start : int;
  mutable region_len : int;
  mutable loop_floor : int;
      (* exited loops are never re-entered: a taken branch may not jump
         back past the fall-through point of the last exited loop, which
         keeps loop nests sequential instead of trapping the walk in the
         first nest of every region *)
  mutable next_id : int;
  mutable pending_branch : static option;
      (* a conditional branch whose flag-producing cmp was just emitted *)
}

let data_regs = [| Reg.Eax; Reg.Ecx; Reg.Edx; Reg.Ebx;
                   Reg.Tmp 0; Reg.Tmp 1; Reg.Tmp 2; Reg.Tmp 3;
                   Reg.Tmp 4; Reg.Tmp 5; Reg.Tmp 6; Reg.Tmp 7 |]

(* Register allocation keeps width chains apart, as compilers in practice
   do with induction variables vs pointer temporaries: narrow chains live
   in one half of the register name space, wide chains in the other. This
   is what stops one wide value from contaminating every narrow chain in
   the region (and what makes last-width prediction learnable at all). *)
let narrow_pool = [| Reg.Eax; Reg.Ecx; Reg.Tmp 0; Reg.Tmp 1; Reg.Tmp 2; Reg.Tmp 3 |]

let wide_pool = [| Reg.Edx; Reg.Ebx; Reg.Tmp 4; Reg.Tmp 5; Reg.Tmp 6; Reg.Tmp 7 |]

let pointer_regs = [| Reg.Esp; Reg.Ebp; Reg.Esi; Reg.Edi |]

let pick_width_character rng ~p_mixed ~flip ~p_narrow =
  if Rng.bool rng p_mixed then Profile.Mixed flip
  else if Rng.bool rng p_narrow then Profile.Stable_narrow
  else Profile.Stable_wide

(* ----- static program construction ----- *)

(* Construction context: the destination registers of the most recent
   statics, so sources wire to nearby producers with the profile's
   dependence distance; plus the registers most recently given narrow
   values, for register-indexed addressing. *)
type build = {
  b_rng : Rng.t;
  mutable b_recent_narrow : Reg.t list;  (* newest first, bounded *)
  mutable b_recent_wide : Reg.t list;
}

let push_bounded x l =
  x :: (if List.length l >= 24 then List.filteri (fun i _ -> i < 23) l else l)

(* Real programs keep computation chains width-coherent: a byte-crunching
   loop reads byte values, pointer arithmetic reads pointers. Sources are
   therefore wired within the chain of the requested width, falling back
   across when that chain has no recent producer. *)
let source_reg (p : Profile.t) b ~narrow =
  let primary, fallback =
    if narrow then (b.b_recent_narrow, b.b_recent_wide)
    else (b.b_recent_wide, b.b_recent_narrow)
  in
  let pool = if primary = [] then fallback else primary in
  match pool with
  | [] -> Rng.choice b.b_rng data_regs
  | recent ->
    let d = Rng.geometric b.b_rng p.dep_distance_mean in
    let n = List.length recent in
    List.nth recent (min (d - 1) (n - 1))

let narrow_source_reg b =
  match b.b_recent_narrow with
  | [] -> None
  | r :: _ -> Some r

let record_write b (s : static) =
  match s.s_dst with
  | None -> ()
  | Some r ->
    if s.s_tag then b.b_recent_narrow <- push_bounded r b.b_recent_narrow
    else b.b_recent_wide <- push_bounded r b.b_recent_wide

let make_static (p : Profile.t) b i =
  let rng = b.b_rng in
  let alu_ops = [| Opcode.Add; Opcode.Add; Opcode.Sub; Opcode.And; Opcode.Or; Opcode.Xor |] in
  let shift_ops = [| Opcode.Shl; Opcode.Shr |] in
  let fp_ops = [| Opcode.Fp_add; Opcode.Fp_add; Opcode.Fp_mul; Opcode.Fp_div |] in
  let rest =
    1. -. (p.f_load +. p.f_store +. p.f_cond_branch +. p.f_uncond_branch
           +. p.f_mul +. p.f_div +. p.f_fp +. p.f_shift)
  in
  let f_mov_imm = rest *. 0.12 and f_ptr = rest *. 0.05 in
  let f_alu = rest -. f_mov_imm -. f_ptr in
  let kind_tag =
    Rng.weighted rng
      [ (p.f_load, `Load); (p.f_store, `Store); (p.f_cond_branch, `Cond);
        (p.f_uncond_branch, `Uncond); (p.f_mul, `Mul); (p.f_div, `Div);
        (p.f_fp, `Fp); (p.f_shift, `Shift); (f_mov_imm, `Mov_imm);
        (f_ptr, `Ptr); (f_alu, `Alu) ]
  in
  let dst ~tag () =
    Some (Rng.choice rng (if tag then narrow_pool else wide_pool))
  in
  let width ~p_narrow =
    pick_width_character rng ~p_mixed:p.p_mixed_width ~flip:p.mixed_flip ~p_narrow
  in
  let tag_of_character = function
    | Profile.Stable_narrow -> true
    | Profile.Stable_wide -> false
    | Profile.Mixed _ -> Rng.bool rng 0.5
  in
  let narrow_imm () = Rng.int rng 0x40 in
  let wide_imm () = Value.mask32 (0x0001_0000 lor (Rng.int rng 0xFFFF lsl 8)) in
  let base =
    { s_index = i; s_kind = K_mov_imm; s_dst = None; s_tag = false;
      s_width = Profile.Stable_narrow; s_imm = 0; s_carry_local = false;
      s_last_narrow = true }
  in
  let s =
    match kind_tag with
    | `Load ->
      let index =
        if Rng.bool rng p.p_narrow_index then narrow_source_reg b else None
      in
      let w = width ~p_narrow:p.p_narrow_load in
      let tag = tag_of_character w in
      { base with
        s_kind = K_load { base = Rng.choice rng pointer_regs; index };
        s_dst = dst ~tag ();
        s_width = w;
        s_tag = tag;
        s_carry_local = Rng.bool rng p.p_carry_local_load }
    | `Store ->
      { base with
        s_kind = K_store { base = Rng.choice rng pointer_regs;
                           data = source_reg p b ~narrow:(Rng.bool rng p.p_narrow_chain) };
        s_carry_local = Rng.bool rng p.p_carry_local_load }
    | `Cond ->
      (* loop-exit compares read induction variables: narrow chains *)
      { base with
        s_kind = K_cond_branch { back = Rng.geometric rng p.loop_back_mean;
                                 cmp_src = source_reg p b ~narrow:(Rng.bool rng 0.85);
                                 backward = Rng.bool rng 0.5 };
        s_imm = (if Rng.bool rng 0.85 then narrow_imm () else wide_imm ()) }
    | `Uncond -> { base with s_kind = K_uncond_branch (1 + Rng.int rng 8) }
    | `Mul ->
      { base with
        s_kind = K_mul { a = source_reg p b ~narrow:false;
                         b = source_reg p b ~narrow:true };
        s_dst = dst ~tag:false () }
    | `Div ->
      { base with
        s_kind = K_div { a = source_reg p b ~narrow:false;
                         b = source_reg p b ~narrow:true };
        s_dst = dst ~tag:false () }
    | `Fp ->
      { base with
        s_kind = K_fp { op = Rng.choice rng fp_ops;
                        a = source_reg p b ~narrow:false;
                        b = source_reg p b ~narrow:false };
        s_dst = dst ~tag:false () }
    | `Shift ->
      let tag = Rng.bool rng p.p_narrow_chain in
      { base with
        s_kind = K_shift { op = Rng.choice rng shift_ops;
                           a = source_reg p b ~narrow:tag;
                           amount = 1 + Rng.int rng 4 };
        s_dst = dst ~tag ();
        s_tag = tag }
    | `Mov_imm ->
      let w = width ~p_narrow:p.p_narrow_imm in
      let tag = tag_of_character w in
      { base with s_kind = K_mov_imm; s_dst = dst ~tag (); s_width = w;
        s_tag = tag }
    | `Ptr ->
      let r = Rng.choice rng pointer_regs in
      { base with s_kind = K_ptr_update { r; inc = 4 * (1 + Rng.int rng 0x40) };
        s_dst = Some r }
    | `Alu ->
      let extra =
        if Rng.bool rng p.p_extra_operand then Some (Rng.choice rng pointer_regs)
        else None
      in
      (* uops carrying implicit machine-state operands are address-class
         work: they belong to wide chains *)
      let narrow_chain = extra = None && Rng.bool rng p.p_narrow_chain in
      let second =
        if Rng.bool rng p.p_second_src_imm then None
        else begin
          (* chains are width-coherent but not hermetic: a quarter of
             register pairs mix widths (address+offset, mask+word), which
             is where the paper's "one narrow operand" class comes from *)
          let cross = Rng.bool rng 0.25 in
          Some (source_reg p b ~narrow:(if cross then not narrow_chain else narrow_chain))
        end
      in
      { base with
        s_kind = K_alu { op = Rng.choice rng alu_ops;
                         a = source_reg p b ~narrow:narrow_chain;
                         b = second; narrow_chain; extra };
        s_dst = dst ~tag:narrow_chain ();
        s_tag = narrow_chain;
        s_imm =
          (if narrow_chain || Rng.bool rng p.p_narrow_imm then narrow_imm ()
           else wide_imm ());
        s_carry_local = Rng.bool rng p.p_carry_local_arith }
  in
  record_write b s;
  s

let create (p : Profile.t) =
  ( match Profile.validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Generator.create: " ^ msg) );
  let rng = Rng.create p.seed in
  let b = { b_rng = rng; b_recent_narrow = []; b_recent_wide = [] } in
  let statics = Array.init p.static_size (fun i -> make_static p b i) in
  let reg_vals = Array.make Reg.count 0 in
  Array.iteri
    (fun i r ->
      reg_vals.(Reg.to_index r) <-
        Value.mask32 (0x0800_0000 + (i * 0x0100_0000) + Rng.int rng 0xFFFF))
    pointer_regs;
  Array.iter (fun r -> reg_vals.(Reg.to_index r) <- Rng.int rng 0x40) data_regs;
  { profile = p; rng; statics; reg_vals; sp = 0; region_start = 0;
    region_len = min 128 p.static_size; loop_floor = 0; next_id = 0;
    pending_branch = None }

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

let reg_val st r = st.reg_vals.(Reg.to_index r)

let writeback st (u : Uop.t) =
  ( match u.Uop.dst with
  | Some d -> st.reg_vals.(Reg.to_index d) <- u.Uop.result
  | None -> () );
  if Uop.writes_flags u then st.reg_vals.(Reg.to_index Reg.Eflags) <- u.Uop.result

let pc_of_static (s : static) = Value.mask32 (0x0040_0000 + (4 * s.s_index))

(* Offset immediate for a wide + imm addition: drawn so the low-byte
   addition carries exactly when the given carry-locality probability says
   it should. Synthetic traces let us enforce the profile's carry locality
   constructively here; register-indexed addresses take whatever the index
   register holds. *)
let adherence = 0.995
(* how faithfully a site follows its habitual carry behaviour *)

let local_offset st ~site_local partial_sum =
  let low = partial_sum land 0xFF in
  let local_now = if site_local then Rng.bool st.rng adherence
                  else Rng.bool st.rng (1. -. adherence) in
  if local_now then Rng.int st.rng (max 1 (0x100 - low))
  else begin
    let need = 0x100 - low in
    if need <= 0xFF then need + Rng.int st.rng (0x100 - need)
    else 0x100 + Rng.int st.rng 0x100
  end

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

let fresh_id st =
  let id = st.next_id in
  st.next_id <- id + 1;
  id

let gen_cmp st (s : static) =
  let id = fresh_id st in
  match s.s_kind with
  | K_cond_branch { cmp_src; _ } ->
    let rv = reg_val st cmp_src in
    Uop.make ~id ~pc:(Value.add (pc_of_static s) 2) ~op:Opcode.Cmp
      ~srcs:[ Uop.Reg cmp_src; Uop.Imm s.s_imm ] ~dst:None
      ~src_vals:[ rv; s.s_imm ] ()
  | K_load _ | K_store _ | K_alu _ | K_shift _ | K_mov_imm
  | K_uncond_branch _ | K_mul _ | K_div _ | K_fp _ | K_ptr_update _ ->
    assert false

let gen_uop st (s : static) =
  let p = st.profile in
  let pc = pc_of_static s in
  match s.s_kind with
  | K_load { base; index } ->
    let id = fresh_id st in
    let base_val = reg_val st base in
    let offset_src, offset_val =
      match index with
      | Some idx -> (Uop.Reg idx, reg_val st idx)
      | None ->
        let off = local_offset st ~site_local:s.s_carry_local base_val in
        (Uop.Imm off, off)
    in
    let addr = Value.add base_val offset_val in
    let result = draw_by_character st s in
    let dl0_miss = Rng.bool st.rng p.p_dl0_miss in
    let ul1_miss = dl0_miss && Rng.bool st.rng p.p_ul1_miss in
    (* miss monotonicity is a construction-time invariant (hc_lint E105):
       a UL1 miss can only happen on the DL0 miss path *)
    assert ((not ul1_miss) || dl0_miss);
    advance st;
    Uop.make ~id ~pc ~op:Opcode.Load ~srcs:[ Uop.Reg base; offset_src ]
      ~dst:s.s_dst ~src_vals:[ base_val; offset_val ] ~result ~mem_addr:addr
      ~dl0_miss ~ul1_miss ()
  | K_store { base; data } ->
    let id = fresh_id st in
    let base_val = reg_val st base in
    let off = local_offset st ~site_local:s.s_carry_local base_val in
    let data_val = reg_val st data in
    advance st;
    Uop.make ~id ~pc ~op:Opcode.Store
      ~srcs:[ Uop.Reg base; Uop.Imm off; Uop.Reg data ]
      ~dst:None ~src_vals:[ base_val; off; data_val ] ~result:data_val
      ~mem_addr:(Value.add base_val off) ()
  | K_alu { op; a; b; narrow_chain = _; extra } ->
    let id = fresh_id st in
    let av = reg_val st a in
    let srcs, vals =
      match b with
      | Some reg -> ([ Uop.Reg a; Uop.Reg reg ], [ av; reg_val st reg ])
      | None ->
        let imm =
          if op = Opcode.Add && not (Width.is_narrow av) then
            local_offset st ~site_local:s.s_carry_local av
          else if op = Opcode.Sub && not (Width.is_narrow av) then begin
            (* borrow-free when the site is habitually local *)
            let low = av land 0xFF in
            let local_now = if s.s_carry_local then Rng.bool st.rng adherence
                            else Rng.bool st.rng (1. -. adherence) in
            if local_now then Rng.int st.rng (low + 1)
            else if low < 0xFF then low + 1 + Rng.int st.rng (0xFF - low)
            else 0x100 + Rng.int st.rng 0x1000
          end
          else s.s_imm
        in
        ([ Uop.Reg a; Uop.Imm imm ], [ av; imm ])
    in
    let srcs, vals =
      match extra with
      | Some r -> (srcs @ [ Uop.Reg r ], vals @ [ reg_val st r ])
      | None -> (srcs, vals)
    in
    let result =
      (* the implicit operand is machine state, not an arithmetic input *)
      match Hc_isa.Semantics.eval op [ List.nth vals 0; List.nth vals 1 ] with
      | Some r -> r
      | None -> 0
    in
    advance st;
    Uop.make ~id ~pc ~op ~srcs ~dst:s.s_dst ~src_vals:vals ~result ()
  | K_shift { op; a; amount } ->
    let id = fresh_id st in
    advance st;
    Uop.make ~id ~pc ~op ~srcs:[ Uop.Reg a; Uop.Imm amount ] ~dst:s.s_dst
      ~src_vals:[ reg_val st a; amount ] ()
  | K_mov_imm ->
    let id = fresh_id st in
    let v = draw_by_character st s in
    advance st;
    Uop.make ~id ~pc ~op:Opcode.Mov ~srcs:[ Uop.Imm v ] ~dst:s.s_dst
      ~src_vals:[ v ] ()
  | K_cond_branch { back; backward; _ } ->
    let id = fresh_id st in
    let flags = reg_val st Reg.Eflags in
    (* loops iterate many times, so back-edges are strongly taken; forward
       if-branches compensate so the overall taken rate tracks the profile *)
    let p_taken =
      if backward then Float.min 0.95 (p.p_taken +. 0.26)
      else Float.max 0.05 (p.p_taken -. 0.26)
    in
    let taken = Rng.bool st.rng p_taken in
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
    Uop.make ~id ~pc ~op:Opcode.Branch_cond ~srcs:[ Uop.Reg Reg.Eflags ]
      ~dst:None ~src_vals:[ flags ] ~result:flags ~taken
      ~branch_mispredicted:mispred ()
  | K_uncond_branch fwd ->
    let id = fresh_id st in
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
    Uop.make ~id ~pc ~op:Opcode.Branch_uncond ~srcs:[] ~dst:None ~src_vals:[]
      ~taken:true ()
  | K_mul { a; b } ->
    let id = fresh_id st in
    advance st;
    Uop.make ~id ~pc ~op:Opcode.Mul ~srcs:[ Uop.Reg a; Uop.Reg b ]
      ~dst:s.s_dst ~src_vals:[ reg_val st a; reg_val st b ] ()
  | K_div { a; b } ->
    let id = fresh_id st in
    advance st;
    Uop.make ~id ~pc ~op:Opcode.Div ~srcs:[ Uop.Reg a; Uop.Reg b ]
      ~dst:s.s_dst ~src_vals:[ reg_val st a; reg_val st b ] ()
  | K_fp { op; a; b } ->
    let id = fresh_id st in
    let result = draw_wide st.rng in
    advance st;
    Uop.make ~id ~pc ~op ~srcs:[ Uop.Reg a; Uop.Reg b ] ~dst:s.s_dst
      ~src_vals:[ reg_val st a; reg_val st b ] ~result ()
  | K_ptr_update { r; inc } ->
    let id = fresh_id st in
    let rv = reg_val st r in
    advance st;
    Uop.make ~id ~pc ~op:Opcode.Add ~srcs:[ Uop.Reg r; Uop.Imm inc ]
      ~dst:(Some r) ~src_vals:[ rv; inc ] ()

let next st =
  let u =
    match st.pending_branch with
    | Some branch_static ->
      st.pending_branch <- None;
      gen_uop st branch_static
    | None ->
      let s = st.statics.(st.sp) in
      ( match s.s_kind with
      | K_cond_branch _ ->
        (* the flag-producing cmp goes first; the branch follows *)
        st.pending_branch <- Some s;
        gen_cmp st s
      | K_load _ | K_store _ | K_alu _ | K_shift _ | K_mov_imm
      | K_uncond_branch _ | K_mul _ | K_div _ | K_fp _ | K_ptr_update _ ->
        gen_uop st s )
  in
  writeback st u;
  u

let generate ?(length = 50_000) p =
  let st = create p in
  let uops = Array.init length (fun _ -> next st) in
  Trace.of_soa ~name:p.Profile.name ~profile:p (Uop_soa.of_uops uops)

let generate_sliced ?(length = 50_000) p =
  let st = create p in
  let skip = 3 * length / 7 in
  for _ = 1 to skip do
    ignore (next st)
  done;
  let uops = Array.init length (fun _ -> next st) in
  Trace.of_soa ~name:p.Profile.name ~profile:p (Uop_soa.of_uops uops)
