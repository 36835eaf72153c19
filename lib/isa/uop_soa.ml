(* Packed structure-of-arrays trace storage.

   One [t] holds a whole trace's uops as parallel columns of immediate
   ints, so the simulator's fetch/steer/issue/wakeup loops, the static
   analyses' def-use walks and the HCTB codec all touch contiguous
   unboxed memory instead of chasing one boxed [Uop.t] record (plus two
   operand lists and an option) per dynamic uop. Operands are flattened
   into shared columns addressed through a prefix-offset column; the four
   trace ground-truth booleans pack into one flag byte per uop (the same
   packing the HCTB wire format uses).

   [of_uops]/[to_uops] are exact inverses: [to_uops (of_uops a)] is
   structurally equal to [a] (proven by QCheck round-trip in
   test_uop_soa.ml). Records are built only at the edges that need
   them — the linter's per-uop checks, diagnostics, tests. *)

type t = {
  len : int;
  ids : int array;
  pcs : int array;
  ops : int array;  (* Opcode.to_index *)
  dsts : int array;  (* Reg.to_index, or -1 for no destination *)
  results : int array;
  mem_addrs : int array;
  flags : Bytes.t;  (* bit 0 taken, 1 mispredicted, 2 dl0_miss, 3 ul1_miss *)
  src_off : int array;  (* len + 1 prefix offsets into the operand columns *)
  src_regs : int array;  (* flattened; Reg.to_index, or -1 for an immediate *)
  src_vals : int array;  (* flattened concrete source values *)
}

let flag_taken = 1
let flag_mispredicted = 2
let flag_dl0 = 4
let flag_ul1 = 8

let length t = t.len

(* ----- per-uop accessors (all O(1), none allocates) ----- *)

let id t i = Array.unsafe_get t.ids i
let pc t i = Array.unsafe_get t.pcs i
let op_index t i = Array.unsafe_get t.ops i
let op t i = Opcode.of_index (Array.unsafe_get t.ops i)
let dst_index t i = Array.unsafe_get t.dsts i
let has_dest t i = Array.unsafe_get t.dsts i >= 0
let result t i = Array.unsafe_get t.results i
let mem_addr t i = Array.unsafe_get t.mem_addrs i

let flag t i bit = Char.code (Bytes.unsafe_get t.flags i) land bit <> 0

let src_base t i = Array.unsafe_get t.src_off i
let nsrcs t i = Array.unsafe_get t.src_off (i + 1) - Array.unsafe_get t.src_off i

(* flattened-column reads: [j] is an absolute operand index obtained from
   [src_base]/[nsrcs] *)
let src_reg t j = Array.unsafe_get t.src_regs j
let src_val t j = Array.unsafe_get t.src_vals j

let writes_flags t i = Opcode.writes_flags (op t i)

(* ----- ground-truth width shapes, column-driven ----- *)

let all_srcs_narrow_bits ~bits t i =
  let lo = src_base t i and n = nsrcs t i in
  let ok = ref true in
  for j = lo to lo + n - 1 do
    if not (Detector.narrow ~bits (Array.unsafe_get t.src_vals j)) then
      ok := false
  done;
  !ok

let is_888_bits ~bits t i =
  all_srcs_narrow_bits ~bits t i
  && ((not (has_dest t i) && not (writes_flags t i))
     || Detector.narrow ~bits (result t i))

(* for memory uops the 8-32-32 "result" is the AGU output (Fig 10) *)
let shape_result t i =
  if Opcode.is_memory (op t i) then mem_addr t i else result t i

let is_8_32_32_bits ~bits t i =
  nsrcs t i = 2
  &&
  let lo = src_base t i in
  let na = Detector.narrow ~bits (src_val t lo)
  and nb = Detector.narrow ~bits (src_val t (lo + 1)) in
  na <> nb && not (Detector.narrow ~bits (shape_result t i))

let carry_not_propagated_bits ~bits t i =
  Opcode.carry_eligible (op t i)
  && is_8_32_32_bits ~bits t i
  &&
  let lo = src_base t i in
  let a = src_val t lo and b = src_val t (lo + 1) in
  let wide = if Detector.narrow ~bits a then b else a in
  shape_result t i lsr bits = wide lsr bits

(* ----- converters ----- *)

let of_uops (uops : Uop.t array) =
  let len = Array.length uops in
  let total_srcs = ref 0 in
  Array.iter (fun (u : Uop.t) -> total_srcs := !total_srcs + List.length u.Uop.srcs) uops;
  let ids = Array.make len 0 in
  let pcs = Array.make len 0 in
  let ops = Array.make len 0 in
  let dsts = Array.make len (-1) in
  let results = Array.make len 0 in
  let mem_addrs = Array.make len 0 in
  let flags = Bytes.make len '\000' in
  let src_off = Array.make (len + 1) 0 in
  let src_regs = Array.make !total_srcs (-1) in
  let src_vals = Array.make !total_srcs 0 in
  let k = ref 0 in
  for i = 0 to len - 1 do
    let u = uops.(i) in
    ids.(i) <- u.Uop.id;
    pcs.(i) <- u.Uop.pc;
    ops.(i) <- Opcode.to_index u.Uop.op;
    dsts.(i) <- (match u.Uop.dst with None -> -1 | Some r -> Reg.to_index r);
    results.(i) <- u.Uop.result;
    mem_addrs.(i) <- u.Uop.mem_addr;
    Bytes.set flags i
      (Char.chr
         ((if u.Uop.taken then flag_taken else 0)
         lor (if u.Uop.branch_mispredicted then flag_mispredicted else 0)
         lor (if u.Uop.dl0_miss then flag_dl0 else 0)
         lor if u.Uop.ul1_miss then flag_ul1 else 0));
    List.iter2
      (fun src v ->
        src_regs.(!k) <- (match src with Uop.Imm _ -> -1 | Uop.Reg r -> Reg.to_index r);
        src_vals.(!k) <- v;
        incr k)
      u.Uop.srcs u.Uop.src_vals;
    src_off.(i + 1) <- !k
  done;
  { len; ids; pcs; ops; dsts; results; mem_addrs; flags; src_off; src_regs;
    src_vals }

let to_uop t i =
  if i < 0 || i >= t.len then invalid_arg "Uop_soa.to_uop: out of bounds";
  let lo = t.src_off.(i) and hi = t.src_off.(i + 1) in
  let srcs = ref [] and src_vals = ref [] in
  for j = hi - 1 downto lo do
    let v = t.src_vals.(j) in
    ( match t.src_regs.(j) with
    | -1 -> srcs := Uop.Imm v :: !srcs
    | r -> srcs := Uop.Reg (Reg.of_index r) :: !srcs );
    src_vals := v :: !src_vals
  done;
  {
    Uop.id = t.ids.(i);
    pc = t.pcs.(i);
    op = Opcode.of_index t.ops.(i);
    srcs = !srcs;
    dst = (match t.dsts.(i) with -1 -> None | d -> Some (Reg.of_index d));
    src_vals = !src_vals;
    result = t.results.(i);
    mem_addr = t.mem_addrs.(i);
    taken = flag t i flag_taken;
    branch_mispredicted = flag t i flag_mispredicted;
    dl0_miss = flag t i flag_dl0;
    ul1_miss = flag t i flag_ul1;
  }

let to_uops t = Array.init t.len (to_uop t)

(* Contiguous slice: uop columns narrow to the window and the operand
   offsets rebase to the sliced operand columns; ids are preserved, not
   renumbered (matching Trace.sub's contract for offset traces). *)
let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then invalid_arg "Uop_soa.sub";
  let lo = t.src_off.(pos) and hi = t.src_off.(pos + len) in
  let src_off = Array.init (len + 1) (fun i -> t.src_off.(pos + i) - lo) in
  {
    len;
    ids = Array.sub t.ids pos len;
    pcs = Array.sub t.pcs pos len;
    ops = Array.sub t.ops pos len;
    dsts = Array.sub t.dsts pos len;
    results = Array.sub t.results pos len;
    mem_addrs = Array.sub t.mem_addrs pos len;
    flags = Bytes.sub t.flags pos len;
    src_off;
    src_regs = Array.sub t.src_regs lo (hi - lo);
    src_vals = Array.sub t.src_vals lo (hi - lo);
  }

(* ----- sequential builder (the generator's, the codec's and the text
   loader's fill target) ----- *)

type builder = {
  b_len : int;
  b_ids : int array;
  b_pcs : int array;
  b_ops : int array;
  b_dsts : int array;
  b_results : int array;
  b_mem_addrs : int array;
  b_flags : Bytes.t;
  b_src_off : int array;
  mutable b_src_regs : int array;
  mutable b_src_vals : int array;
  mutable b_nsrcs : int;  (* operands pushed so far *)
  mutable b_next : int;  (* next uop index to close *)
}

(* Generated traces carry about two operands a uop and never more than
   three, so three a uop is the starting capacity: it holds every trace
   the generator writes without regrowth, and [build] trims it once. *)
let initial_srcs = 3

let builder len =
  if len < 0 then invalid_arg "Uop_soa.builder";
  let cap = Int.max 16 (initial_srcs * len) in
  {
    b_len = len;
    b_ids = Array.make len 0;
    b_pcs = Array.make len 0;
    b_ops = Array.make len 0;
    b_dsts = Array.make len (-1);
    b_results = Array.make len 0;
    b_mem_addrs = Array.make len 0;
    b_flags = Bytes.make len '\000';
    b_src_off = Array.make (len + 1) 0;
    b_src_regs = Array.make cap (-1);
    b_src_vals = Array.make cap 0;
    b_nsrcs = 0;
    b_next = 0;
  }

(* The first [n] ints of [a] in a fresh array of [len] >= [n]. A typed
   loop: [Array.sub] and [Array.blit] into a major-heap array store each
   field through the runtime's initialization or write barrier, which an
   [int array] does not need. *)
let copy_ints (a : int array) n len =
  let r = Array.make len 0 in
  for k = 0 to n - 1 do
    Array.unsafe_set r k (Array.unsafe_get a k)
  done;
  r

let grow b =
  let cap = Array.length b.b_src_regs in
  b.b_src_regs <- copy_ints b.b_src_regs cap (2 * cap);
  b.b_src_vals <- copy_ints b.b_src_vals cap (2 * cap)

let push_src b ~reg ~v =
  if b.b_nsrcs = Array.length b.b_src_regs then grow b;
  b.b_src_regs.(b.b_nsrcs) <- reg;
  b.b_src_vals.(b.b_nsrcs) <- v;
  b.b_nsrcs <- b.b_nsrcs + 1

(* value of operand [k] of the uop currently being built (operands already
   pushed); the codec's mem_addr delta-decode reads base+offset this way *)
let pending_src_val b k = b.b_src_vals.(b.b_src_off.(b.b_next) + k)

let pending_nsrcs b = b.b_nsrcs - b.b_src_off.(b.b_next)

(* Close uop [b_next]: record its scalar columns; the operands pushed
   since the previous close become its operand window. *)
let close_uop b ~id ~pc ~op ~dst ~result ~mem_addr ~flags =
  let i = b.b_next in
  if i >= b.b_len then invalid_arg "Uop_soa.close_uop: too many uops";
  b.b_ids.(i) <- id;
  b.b_pcs.(i) <- pc;
  b.b_ops.(i) <- op;
  b.b_dsts.(i) <- dst;
  b.b_results.(i) <- result;
  b.b_mem_addrs.(i) <- mem_addr;
  Bytes.set b.b_flags i (Char.unsafe_chr (flags land 0xFF));
  b.b_src_off.(i + 1) <- b.b_nsrcs;
  b.b_next <- i + 1

let build b =
  if b.b_next <> b.b_len then
    invalid_arg "Uop_soa.build: builder not fully populated";
  let n = b.b_nsrcs in
  let shrink a = if Array.length a = n then a else copy_ints a n n in
  {
    len = b.b_len;
    ids = b.b_ids;
    pcs = b.b_pcs;
    ops = b.b_ops;
    dsts = b.b_dsts;
    results = b.b_results;
    mem_addrs = b.b_mem_addrs;
    flags = b.b_flags;
    src_off = b.b_src_off;
    src_regs = shrink b.b_src_regs;
    src_vals = shrink b.b_src_vals;
  }
