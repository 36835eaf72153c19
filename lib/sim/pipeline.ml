(* The cycle-level two-cluster pipeline model, organised for an
   allocation-free per-uop hot path: uop fields stream out of the trace's
   packed SoA columns, in-flight state lives in per-domain scratch arenas
   (value/node pools, issue queues, a ring-buffer ROB, an event wheel)
   reused across runs, and options/tuples/closures are replaced by
   sentinels and int codes. Only the pools hold records; every link
   between them (queue, ROB, wheel, rename table, dependences) is the
   int slot of a pooled record, so the hot path stores no pointer and
   runs without the write barrier. The pools recycle: a node goes back
   on its free list when it commits or, for a copy, when it completes or
   dies, and a value when its last holder lets go, so in-flight storage
   is bounded by the machine's window, not by the trace. Issue is
   wakeup-driven: a queued node joins its queue's ready list when the
   last value it waits on turns readable, and an issue round reads only
   that list, never the blocked occupants (see "Wakeup and census").
   Event-sink paths may allocate; they are guarded off the untraced
   run. Nodes name
   their uop by trace index; no uop record exists on this path.
   test/test_alloc.ml checks the marginal minor-words-per-uop of an
   untraced run stays zero, both warm and as the first run on a freshly
   decoded trace, and of a warm run with cycle accounting too. *)
module Opcode = Hc_isa.Opcode
module Reg = Hc_isa.Reg
module Uop_soa = Hc_isa.Uop_soa
module Value = Hc_isa.Value
module Width = Hc_isa.Width
module Trace = Hc_trace.Trace
module Bundle = Hc_predictors.Bundle
module Width_predictor = Hc_predictors.Width_predictor
module Carry_predictor = Hc_predictors.Carry_predictor
module Copy_predictor = Hc_predictors.Copy_predictor
module Sink = Hc_obs.Sink
module Event = Hc_obs.Event
module Counts = Hc_obs.Counts
module Registry = Hc_obs.Registry
module Sample = Hc_obs.Sample

type decide = Steer.decide

let never = max_int

let cluster_index = function Config.Wide -> 0 | Config.Narrow -> 1

(* Stdlib's [min] and [max] are polymorphic calls; every use here is on
   ints *)
let min (a : int) b = if a <= b then a else b

let max (a : int) b = if a >= b then a else b

(* per-cluster-index counter ids *)
let c_issue = [| Counts.issue_wide; Counts.issue_narrow |]
let c_regread = [| Counts.regread_wide; Counts.regread_narrow |]
let c_regwrite = [| Counts.regwrite_wide; Counts.regwrite_narrow |]
let c_dispatch = [| Counts.dispatch_wide; Counts.dispatch_narrow |]
let c_alu = [| Counts.alu_wide; Counts.alu_narrow |]
let c_agu = [| Counts.agu_wide; Counts.agu_narrow |]

(* ----- renamed values -----

   Flattened: the seed kept four 2-element sub-arrays per value (avail,
   copy_inflight, prefetched, prefetch_used); those are scalar mutable
   fields now, and the values themselves come from a per-domain pool, so
   producing a value on the hot path allocates nothing. Everything that
   links to a value stores its pool slot, -1 for none. A value's holders
   are the rename-table slots and the node fields [n_dest],
   [n_dep_v.(0 .. n_ndeps - 1)] and [n_cv]; [v_refs] counts them, and
   the value returns to the pool when the count drops to zero. *)

type vstate = {
  mutable v_pc : Value.t;  (* producer's pc, for predictor training *)
  mutable v_narrow : bool;  (* ground truth width of the value *)
  mutable v_pred_narrow : bool;  (* what the width predictor said at rename *)
  mutable v_epoch : int;  (* bumped on squash so stale references die *)
  mutable v_done : bool;
  mutable v_avail0 : int;  (* tick the value is usable, per cluster-index *)
  mutable v_avail1 : int;
  mutable v_copy_inflight0 : bool;  (* a copy toward cluster i is scheduled *)
  mutable v_copy_inflight1 : bool;
  mutable v_demand_copied : bool;  (* a demand copy was needed: CP training *)
  mutable v_prefetched0 : bool;
  mutable v_prefetched1 : bool;
  mutable v_prefetch_used0 : bool;
  mutable v_prefetch_used1 : bool;
  mutable v_lr : bool;  (* produced by a load that LR will replicate *)
  mutable v_cluster : Config.cluster;  (* producer's cluster *)
  mutable v_from_load : bool;  (* produced by a load: memory-bound stalls *)
  v_slot : int;
      (* index in the value pool: every link to the value stores it, an
         int store needing no write barrier *)
  mutable v_cons : int;
      (* newest consumer edge (see [add_consumer]), -1 none *)
  mutable v_cons_last : int;  (* oldest consumer edge, when [v_cons] >= 0 *)
  mutable v_refs : int;  (* holders: see above *)
}

let new_vstate v_slot =
  {
    v_pc = 0; v_narrow = false; v_pred_narrow = false; v_epoch = 0;
    v_done = false; v_avail0 = never; v_avail1 = never;
    v_copy_inflight0 = false; v_copy_inflight1 = false;
    v_demand_copied = false; v_prefetched0 = false; v_prefetched1 = false;
    v_prefetch_used0 = false; v_prefetch_used1 = false; v_lr = false;
    v_cluster = Config.Wide; v_from_load = false; v_slot; v_cons = -1;
    v_cons_last = -1; v_refs = 0;
  }

let v_avail v i = if i = 0 then v.v_avail0 else v.v_avail1

let set_v_avail v i t = if i = 0 then v.v_avail0 <- t else v.v_avail1 <- t

let v_copy_inflight v i = if i = 0 then v.v_copy_inflight0 else v.v_copy_inflight1

let set_v_copy_inflight v i b =
  if i = 0 then v.v_copy_inflight0 <- b else v.v_copy_inflight1 <- b

let v_prefetched v i = if i = 0 then v.v_prefetched0 else v.v_prefetched1

let set_v_prefetched v i b =
  if i = 0 then v.v_prefetched0 <- b else v.v_prefetched1 <- b

let v_prefetch_used v i = if i = 0 then v.v_prefetch_used0 else v.v_prefetch_used1

let set_v_prefetch_used v i b =
  if i = 0 then v.v_prefetch_used0 <- b else v.v_prefetch_used1 <- b

let reset_vstate v =
  v.v_epoch <- v.v_epoch + 1;
  v.v_done <- false;
  v.v_avail0 <- never;
  v.v_avail1 <- never;
  v.v_copy_inflight0 <- false;
  v.v_copy_inflight1 <- false;
  v.v_prefetched0 <- false;
  v.v_prefetched1 <- false;
  v.v_prefetch_used0 <- false;
  v.v_prefetch_used1 <- false;
  v.v_lr <- false

(* ----- pipeline nodes -----

   The seed's [kind] variant (Normal | Copy of {..} | Slice of {..}) and
   its option-typed fields each cost a block per dispatched node. The
   kind is an int code with the payload flattened into dedicated fields,
   options are sentinel-tested fields, links to values are value slots,
   and the nodes themselves are pooled per domain, so dispatch allocates
   nothing. *)

let k_normal = 0

let k_copy = 1

let k_slice = 2

(* steering-reason codes; 0 = none, mirroring [Steer.reason option] *)
let r_none = 0

let r_888 = 1

let r_br = 2

let r_cr = 3

let r_ir = 4

let r_live = 5

let reason_code = function
  | Steer.R888 -> r_888
  | Steer.Rbr -> r_br
  | Steer.Rcr -> r_cr
  | Steer.Rir -> r_ir
  | Steer.Rlive -> r_live

(* Fields are grouped by the paths that read them, hottest first: a
   wakeup, then the issue round, then the rest. *)
type node = {
  n_slot : int;
      (* index in the node pool: the issue queues, the ROB, the event
         wheel and the consumer edges store it *)
  mutable n_queued : bool;  (* in an issue queue *)
  mutable n_ready : bool;
      (* queued with every dependence readable: in the queue's ready list *)
  mutable n_cap : int;
      (* listed: 1 when the helper's units could host it, see [capable] *)
  mutable n_lstamp : int;
      (* the stamp its consumer edges carry while it waits; 0 = none *)
  mutable n_nwait : int;
      (* queued, not ready: its edges not yet consumed, one per
         dependence it cannot read *)
  mutable n_kind : int;  (* k_normal / k_copy / k_slice *)
  mutable n_cluster : Config.cluster;
  mutable n_remote_reads : bool;
      (* CR (§3.5): the 8-bit AGU consumes only source low bytes; the wide
         source's upper 24 bits stay behind the rename tag in the wide
         register file, so sources need no inter-cluster copy and are
         readable as soon as they exist anywhere *)
  (* dependences: parallel (value slot, epoch-at-dispatch) arrays with
     an explicit length, so re-dispatching reuses the same storage *)
  mutable n_ndeps : int;
  mutable n_dep_v : int array;
  (* copy payload (valid when n_kind = k_copy) *)
  mutable n_cv : int;  (* the value being copied; -1 = not a copy *)
  mutable n_copy_epoch : int;  (* cv's epoch when the copy was made *)
  mutable n_qpos : int;
      (* its position in the queue's [iq_slots]: queue order (see [iq]) *)
  mutable n_census : int;
      (* census only: the count this queued node is in, 3 * lane + class *)
  mutable n_trace_idx : int;
      (* position in the trace, the key to every uop column; -1 for copies *)
  mutable n_op : Opcode.t;
      (* decoded once at dispatch: latency, unit class and the width check
         all key on it; [Nop] for copies *)
  mutable n_issued : bool;
  mutable n_gen : int;
      (* incremented when the node is squashed-and-resteered, and when its
         record is reused, so completion events scheduled for a previous
         incarnation are ignored *)
  mutable n_complete : int;
  mutable n_disp_tick : int;  (* telemetry: tick of issue-queue insertion *)
  mutable n_issue_tick : int;  (* telemetry: tick the uop won an issue slot *)
  mutable n_id : int;
      (* dispatch order, unique within a run: the due batch's sort, the
         flush's younger-than test and telemetry event ids read it *)
  mutable n_dep_e : int array;
  mutable n_copy_target : int;  (* destination cluster-index *)
  mutable n_copy_publishes : bool;
      (* IR splits send a burst of four byte copies; only the last one
         publishes the value in the target register file *)
  (* slice payload (valid when n_kind = k_slice) *)
  mutable n_slice_final : bool;
      (* one 8-bit lane of an IR-split uop; final completes the value *)
  mutable n_done : bool;
  mutable n_dest : int;  (* value slot; -1 = no destination *)
  mutable n_reason : int;  (* r_none / r_888 / ... *)
  mutable n_is_mem : bool;
  mutable n_lr_replicate : bool;  (* LR: replicate the load on completion *)
  mutable n_br_mispredicted : bool;
      (* resolved direction-prediction outcome for this dynamic branch:
         the trace's ground truth under Br_trace_flags, the gshare verdict
         under Br_gshare (computed in order at dispatch) *)
  mutable n_alloc : int;
      (* cluster-index of the physical register allocated for the
         destination, to return at commit; -1 = none *)
  mutable n_mark : bool;  (* transient, used by flush_from's queue purge *)
}

let new_node n_slot =
  {
    n_id = min_int; n_slot; n_trace_idx = -1; n_op = Opcode.Nop;
    n_kind = k_normal; n_cv = -1; n_copy_target = 0;
    n_copy_epoch = 0; n_copy_publishes = false; n_slice_final = false;
    n_cluster = Config.Wide; n_done = true;
    n_issued = false; n_gen = 0;
    n_dep_v = Array.make 4 (-1); n_dep_e = Array.make 4 0;
    n_ndeps = 0; n_dest = -1; n_reason = r_none;
    n_is_mem = false; n_lr_replicate = false; n_br_mispredicted = false;
    n_alloc = -1; n_remote_reads = false; n_complete = never;
    n_disp_tick = 0; n_issue_tick = 0; n_queued = false;
    n_qpos = -1; n_ready = false; n_cap = 0; n_lstamp = 0; n_nwait = 0;
    n_mark = false; n_census = 0;
  }

let ensure_node_dep_cap (node : node) cap =
  if Array.length node.n_dep_v < cap then begin
    let ncap = max cap (2 * Array.length node.n_dep_v) in
    let nv = Array.make ncap (-1) in
    let ne = Array.make ncap 0 in
    Array.blit node.n_dep_v 0 nv 0 node.n_ndeps;
    Array.blit node.n_dep_e 0 ne 0 node.n_ndeps;
    node.n_dep_v <- nv;
    node.n_dep_e <- ne
  end

(* ----- issue queues -----

   [iq_slots] holds the occupants' node slots in queue order, with -1
   where a node has left: issue and a dead copy's removal take a node
   out by its [n_qpos] without moving the others, so a round costs what
   it issues, not the occupancy. An append that finds the array full
   first squeezes the holes out (and doubles the array when that frees
   less than half), so the squeezes stay rare; the flush's purge and
   [relist] squeeze too. A position is stamped by [iq_append] and only
   grows with the append order, and a squeeze keeps the order, so
   position order is queue order. (It cannot be [n_id]'s order, because
   [replay] re-appends an old node at the back.) [iq_bits] marks the
   positions of the occupants that can issue now, the queue's ready
   list, so an issue round finds them oldest first without a walk.
   Readiness is kept by wakeup, see "Wakeup and census" below. *)

type iq = {
  mutable iq_slots : int array;
  mutable iq_end : int;  (* used prefix of [iq_slots], holes included *)
  mutable iq_len : int;  (* occupants: what dispatch and the samples read *)
  mutable iq_bits : int array;
      (* bit [p land 31] of word [p lsr 5]: the occupant at position [p]
         is listed ready; clear past [iq_end] *)
  mutable iq_nready : int;  (* listed occupants *)
  mutable iq_ncap : int;  (* listed nodes the helper's units could host *)
  mutable iq_ndead : int;  (* listed dead copies, see [relist] *)
}

let fresh_iq () =
  { iq_slots = Array.make 32 0; iq_end = 0; iq_len = 0;
    iq_bits = Array.make 1 0; iq_nready = 0; iq_ncap = 0; iq_ndead = 0 }

(* The index of the lowest set bit of a nonzero 32-bit word: the bit
   isolated, times a de Bruijn constant, indexes this table *)
let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] low_bit w =
  debruijn32.((((w land (-w)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let[@inline] set_bit bits p =
  bits.(p lsr 5) <- bits.(p lsr 5) lor (1 lsl (p land 31))

let[@inline] clear_bit bits p =
  bits.(p lsr 5) <- bits.(p lsr 5) land lnot (1 lsl (p land 31))

(* Squeeze the holes out of [iq_slots], keeping the order; the listed
   occupants keep their marks at their new positions. *)
let iq_compact (nodes : node array) q =
  let slots = q.iq_slots and bits = q.iq_bits in
  Array.fill bits 0 (Array.length bits) 0;
  let w = ref 0 in
  for k = 0 to q.iq_end - 1 do
    let s = slots.(k) in
    if s >= 0 then begin
      let n = nodes.(s) in
      slots.(!w) <- s;
      n.n_qpos <- !w;
      if n.n_ready then set_bit bits !w;
      incr w
    end
  done;
  q.iq_end <- !w

(* [nodes] is the node pool as it stands after [n]'s allocation *)
let iq_append nodes q (n : node) =
  if q.iq_end = Array.length q.iq_slots then begin
    iq_compact nodes q;
    let cap = Array.length q.iq_slots in
    if 2 * q.iq_end > cap then begin
      let arr = Array.make (2 * cap) 0 in
      Array.blit q.iq_slots 0 arr 0 q.iq_end;
      q.iq_slots <- arr;
      let bits = Array.make (2 * cap / 32) 0 in
      Array.blit q.iq_bits 0 bits 0 (Array.length q.iq_bits);
      q.iq_bits <- bits
    end
  end;
  q.iq_slots.(q.iq_end) <- n.n_slot;
  n.n_qpos <- q.iq_end;
  q.iq_end <- q.iq_end + 1;
  q.iq_len <- q.iq_len + 1;
  n.n_queued <- true;
  n.n_ready <- false

(* [n] leaves its queue (issued, or a dead copy taken out) *)
let[@inline] iq_leave q (n : node) =
  q.iq_slots.(n.n_qpos) <- -1;
  clear_bit q.iq_bits n.n_qpos;
  q.iq_len <- q.iq_len - 1;
  n.n_queued <- false;
  n.n_ready <- false

(* ----- event wheel slots -----

   Growable per-slot arrays of (node slot, generation-at-schedule),
   reused across wheel wraps so steady-state scheduling allocates
   nothing. *)

type evslot = {
  mutable ev_nodes : int array;
  mutable ev_gens : int array;
  mutable ev_len : int;
}

let wheel_size = 4096

(* the wheel's occupancy bitmap packs this many slots per int *)
let bits_per_word = 32

(* ----- per-domain scratch arenas -----

   Everything whose lifetime is one [run] but whose storage can outlive
   it: the value and node pools, the event wheel, the completion batch,
   the ROB ring storage, the flush resteer buffer, the dispatch
   dependence scratch, the rename table, and the two issue queues. Kept
   in domain-local storage: [run] is synchronous and each
   Domain_pool worker runs tasks sequentially, so one arena per domain is
   race-free, and warm reruns allocate nothing per uop.

   Each pool is a record array with a bump cursor (its high-water in the
   current run) and a free list of slots. A record freed in a run is
   handed out again before the cursor moves, so a run touches only about
   as many records as the machine holds in flight at once: the ROB, the
   copies in the issue queues and on the wheel, and the values the
   rename table and those nodes hold. Both pools start at a size taken
   from the configuration and double when a run outgrows them; [create]
   empties the free lists and rewinds the cursors. The free lists, like
   every other link into the pools, hold slot numbers, int stores needing
   no write barrier. Growing a pool replaces its array (the records stay
   the same), so code that can grow one reads the pool afresh after the
   [alloc_*] call rather than keeping the array from before it. *)

type scratch = {
  mutable p_vstates : vstate array;  (* value pool *)
  mutable p_vcur : int;
  mutable v_free : int array;  (* free value slots, a stack *)
  mutable v_nfree : int;
  mutable p_nodes : node array;  (* node pool *)
  mutable p_ncur : int;
  mutable n_free : int array;  (* free node slots, a stack *)
  mutable n_nfree : int;
  events : evslot array;  (* indexed by tick mod wheel_size *)
  ev_bits : int array;
      (* bit k of word w: slot [w * bits_per_word + k] holds an entry,
         live, stale or a wrap; cleared when a visit empties the slot *)
  mutable due_nodes : int array;  (* completion scratch, node slots *)
  mutable due_gens : int array;
  mutable due_len : int;
  mutable rob_buf : int array;  (* ROB ring storage, >= cfg.rob_size *)
  mutable resteer : int array;  (* flush_from's squash set, ROB order *)
  mutable dp_v : int array;  (* dispatch dependence scratch, value slots *)
  mutable dp_e : int array;
  mutable dp_need : bool array;  (* needs a cross-cluster copy *)
  mutable dp_n : int;
  rename : int array;  (* arch reg -> live value's slot; -1 = none *)
  iqs : iq array;  (* the wide and the narrow issue queue *)
  mutable e_node : int array;
      (* consumer edges, by edge index: the consumer's [n_slot] and the
         value's next-older edge (-1 ends the list) *)
  mutable e_next : int array;
  mutable e_stamp : int array;
      (* the consumer's listing stamp when linked; a consumed edge leaves
         its value's chain ([wake_from]) *)
  mutable e_len : int;
  mutable e_free : int;
      (* the free edges, a stack threaded through [e_next] (-1 empty); a
         value's edges go on it when the value is freed *)
  recheck : int array array;
      (* value slots whose consumers to wake, by tick mod 4 *)
  recheck_n : int array;
}

let fresh_scratch () =
  {
    p_vstates = [||];
    p_vcur = 0;
    v_free = [||];
    v_nfree = 0;
    p_nodes = [||];
    p_ncur = 0;
    n_free = [||];
    n_nfree = 0;
    events =
      Array.init wheel_size (fun _ ->
          { ev_nodes = Array.make 4 0; ev_gens = Array.make 4 0; ev_len = 0 });
    ev_bits = Array.make (wheel_size / bits_per_word) 0;
    due_nodes = Array.make 64 0;
    due_gens = Array.make 64 0;
    due_len = 0;
    rob_buf = [||];
    resteer = Array.make 64 0;
    dp_v = Array.make 8 (-1);
    dp_e = Array.make 8 0;
    dp_need = Array.make 8 false;
    dp_n = 0;
    rename = Array.make Reg.count (-1);
    iqs = Array.init 2 (fun _ -> fresh_iq ());
    e_node = Array.make 4096 0;
    e_next = Array.make 4096 0;
    e_stamp = Array.make 4096 0;
    e_len = 0;
    e_free = -1;
    recheck = Array.init 4 (fun _ -> Array.make 8 0);
    recheck_n = Array.make 4 0;
  }

let scratch_key = Domain.DLS.new_key fresh_scratch

(* Grow a pool to at least [cap] records, keeping the existing ones; its
   free-list stack grows alike, so it can hold every slot. Called only
   while the free list is empty (a run outgrowing its pool, or [create]
   rewinding it), so the new stack starts empty too. *)
let grow_vpool sc cap =
  let old = sc.p_vstates in
  let n = Array.length old in
  if n < cap then begin
    sc.p_vstates <- Array.init cap (fun i -> if i < n then old.(i) else new_vstate i);
    sc.v_free <- Array.make cap 0
  end

let grow_npool sc cap =
  let old = sc.p_nodes in
  let n = Array.length old in
  if n < cap then begin
    sc.p_nodes <- Array.init cap (fun i -> if i < n then old.(i) else new_node i);
    sc.n_free <- Array.make cap 0
  end

let ensure_dp_cap sc cap =
  if Array.length sc.dp_v < cap then begin
    let ncap = max cap (2 * Array.length sc.dp_v) in
    let nv = Array.make ncap (-1) in
    let ne = Array.make ncap 0 in
    let nn = Array.make ncap false in
    Array.blit sc.dp_v 0 nv 0 sc.dp_n;
    Array.blit sc.dp_e 0 ne 0 sc.dp_n;
    Array.blit sc.dp_need 0 nn 0 sc.dp_n;
    sc.dp_v <- nv;
    sc.dp_e <- ne;
    sc.dp_need <- nn
  end

let ensure_resteer_cap sc cap =
  if Array.length sc.resteer < cap then begin
    let old = sc.resteer in
    let ncap = max cap (2 * Array.length old) in
    let arr = Array.make ncap 0 in
    Array.blit old 0 arr 0 (Array.length old);
    sc.resteer <- arr
  end

(* The pools' starting sizes: the most nodes and values the machine can
   hold in flight in the common case, the ROB and both issue queues
   full, every register renamed. A run that needs more grows them. *)
let pool_sizes cfg =
  let rob = cfg.Config.rob_size and iq = cfg.Config.iq_size in
  (rob + (2 * iq), rob + (2 * iq) + Reg.count)

(* Empty what the previous run left behind, rewind the pools, and make
   sure the pools, the issue queues and the ROB ring fit this run's
   configuration. With [tiny_pools] both pools restart at one record
   each, so the run grows them while their slots are linked. *)
let reset_scratch ~tiny_pools sc cfg =
  for k = 0 to wheel_size - 1 do
    sc.events.(k).ev_len <- 0
  done;
  Array.fill sc.ev_bits 0 (Array.length sc.ev_bits) 0;
  sc.due_len <- 0;
  sc.p_ncur <- 0;
  sc.n_nfree <- 0;
  sc.p_vcur <- 0;
  sc.v_nfree <- 0;
  if tiny_pools then begin
    sc.p_nodes <- [| new_node 0 |];
    sc.n_free <- [| 0 |];
    sc.p_vstates <- [| new_vstate 0 |];
    sc.v_free <- [| 0 |]
  end
  else begin
    let nodes, values = pool_sizes cfg in
    grow_npool sc nodes;
    grow_vpool sc values
  end;
  sc.dp_n <- 0;
  Array.fill sc.rename 0 (Array.length sc.rename) (-1);
  let rob_size = cfg.Config.rob_size in
  if Array.length sc.rob_buf < rob_size then sc.rob_buf <- Array.make rob_size 0;
  for lane = 0 to 1 do
    let q = sc.iqs.(lane) in
    q.iq_end <- 0;
    q.iq_len <- 0;
    q.iq_nready <- 0;
    q.iq_ncap <- 0;
    q.iq_ndead <- 0;
    (* four times the queue, so a full queue squeezes its holes out at
       most once per three [iq_size] appends *)
    let cap = 32 * ((cfg.Config.iq_size + 7) / 8) in
    if Array.length q.iq_slots < cap then begin
      q.iq_slots <- Array.make cap 0;
      q.iq_bits <- Array.make (cap / 32) 0
    end
    else Array.fill q.iq_bits 0 (Array.length q.iq_bits) 0
  done;
  sc.e_len <- 0;
  sc.e_free <- -1;
  Array.fill sc.recheck_n 0 4 0

(* ----- whole-machine state ----- *)

(* Why the most recent frontend round stopped dispatching — consumed by
   the cycle accounting to split an empty stage between dispatch-stalled
   and genuinely idle. A single int write per stall, so it stays on even
   with accounting off. *)
type stall_src = Sr_none | Sr_rob | Sr_iq | Sr_regfile | Sr_mob

type state = {
  cfg : Config.t;
  soa : Uop_soa.t;  (* the trace's packed columns, read by trace index *)
  trace_len : int;
  decide : decide;
  preds : Bundle.t;
  counts : int array;  (* every dynamic count, by Counts id *)
  sink : Sink.t option;
      (* telemetry; [None] keeps every instrumentation point a single
         field test and the hot path allocation-free *)
  accounting : bool;
      (* cycle accounting into the [Stall] rows of [counts], with the
         blocked-occupant census it reads; off keeps the attribution
         behind one field test per issue round *)
  check : bool;
      (* tests only: check the ready lists, and under accounting the
         census, against full walks of the queues *)
  poison : bool;
      (* tests only: scribble over each record as it is freed, so a read
         of a freed record changes the run (see [poison_node]) *)
  skip : bool;
      (* jump over quiet ticks (see [horizon]); off only in For_testing's
         tick-by-tick reference runs *)
  mutable drop_idx : int;
      (* tests only: the trace index whose next completion is never
         scheduled, wedging the machine; -2 = none *)
  census : int array;  (* queued nodes by 3 * lane + class, see below *)
  sc : scratch;
  mutable seq : int;  (* the next node's [n_id] *)
  mutable steer_ctx : Steer.ctx option;  (* built once, after [create] *)
  lat3 : int * int * int;  (* (dl0, ul1, mem) for the cache hierarchy *)
  mutable stall_src : stall_src;  (* last frontend round's stop reason *)
  mutable wflush_until : int;  (* draining a width flush before this tick *)
  (* frontend *)
  mutable fetch_idx : int;  (* next trace index to dispatch *)
  mutable fetch_resume : int;  (* tick before which dispatch is stalled *)
  mutable fe_code : int;  (* [decision_code] of the last dispatch attempt *)
  rename : int array;  (* = sc.rename *)
  (* backends *)
  iq : iq array;  (* = sc.iqs, per cluster-index, oldest first *)
  rob_buf : int array;  (* ring of node slots, oldest at rob_head *)
  rob_cap : int;
  mutable rob_head : int;
  mutable rob_count : int;
  mutable mob_count : int;
  backlog : int array;  (* per cluster: ready-not-issued in the last round *)
  backlog_ewma : float array;  (* smoothed, for the IR trigger *)
  (* structural substrates, built on first use: only the config's model
     selectors use them, and the 4 MB UL1 alone is two 65 536-entry
     arrays to fill per run *)
  memory : Cache.Hierarchy.t Lazy.t;
  gshare : Branch_predictor.t Lazy.t;
  tcache : Trace_cache.t Lazy.t;
  regfile : Regfile.t;
  mutable now : int;
  mutable quiet_since : int;  (* first tick of the current quiet run *)
  mutable avail_soon : int;
      (* latest tick a completing value was published ahead to (the
         other cluster reads it at [now + 2]) *)
  (* per-round scratch results: stage walks report through these fields
     instead of returning tuples or threading refs *)
  mutable iss_issued : int;
  mutable iss_ready : int;
  mutable iss_capable : int;
      (* the NREADY leftover the helper's 8-bit units could host *)
  mutable iss_removed : int;  (* issued and dead-copy nodes taken out *)
  mutable wait_class : int;  (* [wait_state]'s census index *)
  mutable lstamp : int;  (* the latest [n_lstamp] handed out *)
  (* work counters, recorded at run exit (see [observe_run]) *)
  mutable issue_visits : int;  (* ready-list entries the issue walks read *)
  mutable wakeup_touches : int;  (* waiting consumers a wakeup reached *)
  mutable dis_demand_w : int;  (* copy slot demand of the current dispatch *)
  mutable dis_demand_n : int;
  mutable rsteer_n : int;  (* live prefix of sc.resteer *)
  mutable split_prev : int;  (* previous lane's value while cracking a split *)
}

let[@inline] bump_by st id n =
  let c = st.counts in
  c.(id) <- c.(id) + n

let[@inline] bump st id = bump_by st id 1

(* The records behind slots. They read the pool afresh: an [alloc_*]
   call can replace the pool's array. *)
let[@inline] value_at st s = st.sc.p_vstates.(s)

let[@inline] node_at st s = st.sc.p_nodes.(s)

(* ----- pool allocation ----- *)

let alloc_vstate st ~pc ~narrow ~pred_narrow ~cluster =
  let sc = st.sc in
  let v =
    if sc.v_nfree > 0 then begin
      sc.v_nfree <- sc.v_nfree - 1;
      sc.p_vstates.(sc.v_free.(sc.v_nfree))
    end
    else begin
      if sc.p_vcur >= Array.length sc.p_vstates then
        grow_vpool sc (2 * sc.p_vcur);
      let v = sc.p_vstates.(sc.p_vcur) in
      sc.p_vcur <- sc.p_vcur + 1;
      v
    end
  in
  v.v_pc <- pc;
  v.v_narrow <- narrow;
  v.v_pred_narrow <- pred_narrow;
  v.v_epoch <- 0;
  v.v_done <- false;
  v.v_avail0 <- never;
  v.v_avail1 <- never;
  v.v_copy_inflight0 <- false;
  v.v_copy_inflight1 <- false;
  v.v_demand_copied <- false;
  v.v_prefetched0 <- false;
  v.v_prefetched1 <- false;
  v.v_prefetch_used0 <- false;
  v.v_prefetch_used1 <- false;
  v.v_lr <- false;
  v.v_cluster <- cluster;
  v.v_from_load <- false;
  v.v_cons <- -1;
  v.v_refs <- 0;
  v

let alloc_node st =
  let sc = st.sc in
  let n =
    if sc.n_nfree > 0 then begin
      sc.n_nfree <- sc.n_nfree - 1;
      sc.p_nodes.(sc.n_free.(sc.n_nfree))
    end
    else begin
      if sc.p_ncur >= Array.length sc.p_nodes then
        grow_npool sc (2 * sc.p_ncur);
      let n = sc.p_nodes.(sc.p_ncur) in
      sc.p_ncur <- sc.p_ncur + 1;
      n
    end
  in
  n.n_id <- st.seq;
  st.seq <- st.seq + 1;
  n.n_trace_idx <- -1;
  n.n_op <- Opcode.Nop;
  n.n_kind <- k_normal;
  n.n_cv <- -1;
  n.n_copy_target <- 0;
  n.n_copy_epoch <- 0;
  n.n_copy_publishes <- false;
  n.n_slice_final <- false;
  n.n_cluster <- Config.Wide;
  n.n_done <- false;
  n.n_issued <- false;
  n.n_gen <- n.n_gen + 1;
  n.n_ndeps <- 0;
  n.n_dest <- -1;
  n.n_reason <- r_none;
  n.n_is_mem <- false;
  n.n_lr_replicate <- false;
  n.n_br_mispredicted <- false;
  n.n_alloc <- -1;
  n.n_remote_reads <- false;
  n.n_complete <- never;
  n.n_disp_tick <- 0;
  n.n_issue_tick <- 0;
  n.n_queued <- false;
  n.n_ready <- false;
  n.n_mark <- false;
  n

(* ----- freeing -----

   A node is freed when it commits, and a copy when it completes or
   leaves its queue dead; freeing it lets go of the values it holds. A value is
   freed when its last holder lets go: a rename-table overwrite, a node
   freed, or a dependence the flush drops. What may still reach a freed
   record is harmless: a stale wheel entry carries an older generation,
   a consumer edge acts only on a node queued under the edge's listing
   stamp, and a freed node is not queued. *)

let[@inline] hold (v : vstate) = v.v_refs <- v.v_refs + 1

(* Scribble over a freed value's fields (all but its slot, holder count
   and consumer edges, which [release] hands back), so any read of it
   changes the run. *)
let poison_vstate v =
  v.v_pc <- lnot v.v_pc;
  v.v_narrow <- not v.v_narrow;
  v.v_pred_narrow <- not v.v_pred_narrow;
  v.v_epoch <- v.v_epoch + 1_000_003;
  v.v_done <- not v.v_done;
  v.v_avail0 <- (if v.v_avail0 = 0 then never else 0);
  v.v_avail1 <- (if v.v_avail1 = 0 then never else 0);
  v.v_copy_inflight0 <- not v.v_copy_inflight0;
  v.v_copy_inflight1 <- not v.v_copy_inflight1;
  v.v_demand_copied <- not v.v_demand_copied;
  v.v_prefetched0 <- not v.v_prefetched0;
  v.v_prefetched1 <- not v.v_prefetched1;
  v.v_prefetch_used0 <- not v.v_prefetch_used0;
  v.v_prefetch_used1 <- not v.v_prefetch_used1;
  v.v_lr <- not v.v_lr;
  v.v_cluster <- (if v.v_cluster = Config.Wide then Config.Narrow else Config.Wide);
  v.v_from_load <- not v.v_from_load

(* let go of the value in slot [s], if any *)
let release st s =
  if s >= 0 then begin
    let v = value_at st s in
    let r = v.v_refs - 1 in
    v.v_refs <- r;
    if r = 0 then begin
      if st.poison then poison_vstate v;
      let sc = st.sc in
      if v.v_cons >= 0 then begin
        (* its consumer edges go onto the free edges, chain and all *)
        sc.e_next.(v.v_cons_last) <- sc.e_free;
        sc.e_free <- v.v_cons;
        v.v_cons <- -1
      end;
      sc.v_free.(sc.v_nfree) <- v.v_slot;
      sc.v_nfree <- sc.v_nfree + 1
    end
  end

(* Scribble over a freed node's fields, keeping what stale references
   read: its generation, which only grows, and its queue flags. Trace
   indices stay in range, so a stray read misbehaves without crashing. *)
let poison_node st n =
  n.n_id <- -1;
  n.n_trace_idx <-
    (if n.n_trace_idx < 0 then 0 else (n.n_trace_idx + 1) mod st.trace_len);
  n.n_op <- (if n.n_op = Opcode.Div then Opcode.Add else Opcode.Div);
  n.n_kind <- (n.n_kind + 1) mod 3;
  n.n_copy_target <- 1 - n.n_copy_target;
  n.n_copy_epoch <- n.n_copy_epoch + 1_000_003;
  n.n_copy_publishes <- not n.n_copy_publishes;
  n.n_slice_final <- not n.n_slice_final;
  n.n_cluster <- (if n.n_cluster = Config.Wide then Config.Narrow else Config.Wide);
  n.n_done <- not n.n_done;
  n.n_issued <- not n.n_issued;
  n.n_ndeps <- 0;
  n.n_reason <- (n.n_reason + 1) mod 6;
  n.n_is_mem <- not n.n_is_mem;
  n.n_lr_replicate <- not n.n_lr_replicate;
  n.n_br_mispredicted <- not n.n_br_mispredicted;
  n.n_alloc <- (if n.n_alloc < 0 then 0 else -1);
  n.n_remote_reads <- not n.n_remote_reads;
  n.n_complete <- -1;
  n.n_disp_tick <- -1;
  n.n_issue_tick <- -1;
  n.n_qpos <- -1;
  n.n_cap <- 1 - n.n_cap;
  n.n_census <- (n.n_census + 1) mod 6

(* [node] is neither queued nor in the ROB nor due on the wheel *)
let free_node st (node : node) =
  release st node.n_dest;
  for k = 0 to node.n_ndeps - 1 do
    release st node.n_dep_v.(k)
  done;
  release st node.n_cv;
  if st.poison then poison_node st node;
  let sc = st.sc in
  sc.n_free.(sc.n_nfree) <- node.n_slot;
  sc.n_nfree <- sc.n_nfree + 1

(* ----- ROB ring ----- *)

let rob_add st (node : node) =
  let pos = st.rob_head + st.rob_count in
  let pos = if pos >= st.rob_cap then pos - st.rob_cap else pos in
  st.rob_buf.(pos) <- node.n_slot;
  st.rob_count <- st.rob_count + 1

let rob_peek st = node_at st st.rob_buf.(st.rob_head)

let rob_pop st =
  let h = st.rob_head + 1 in
  st.rob_head <- (if h >= st.rob_cap then 0 else h);
  st.rob_count <- st.rob_count - 1

(* k-th oldest occupant, 0 <= k < rob_count *)
let rob_get st k =
  let pos = st.rob_head + k in
  node_at st st.rob_buf.(if pos >= st.rob_cap then pos - st.rob_cap else pos)

(* ----- event wheel ----- *)

let schedule st (node : node) tick =
  node.n_complete <- tick;
  if node.n_trace_idx = st.drop_idx then st.drop_idx <- -2
  else begin
    let sc = st.sc in
    let s = tick land (wheel_size - 1) in
    let slot = sc.events.(s) in
    let cap = Array.length slot.ev_nodes in
    if slot.ev_len = cap then begin
      let nodes = Array.make (2 * cap) 0 in
      let gens = Array.make (2 * cap) 0 in
      Array.blit slot.ev_nodes 0 nodes 0 cap;
      Array.blit slot.ev_gens 0 gens 0 cap;
      slot.ev_nodes <- nodes;
      slot.ev_gens <- gens
    end;
    slot.ev_nodes.(slot.ev_len) <- node.n_slot;
    slot.ev_gens.(slot.ev_len) <- node.n_gen;
    slot.ev_len <- slot.ev_len + 1;
    let w = s / bits_per_word in
    sc.ev_bits.(w) <- sc.ev_bits.(w) lor (1 lsl (s land (bits_per_word - 1)))
  end

let rec ctz w n = if w land 1 = 1 then n else ctz (w lsr 1) (n + 1)

let rec next_event_from sc t stop limit =
  if t >= stop then limit
  else begin
    let s = t land (wheel_size - 1) in
    let k = s land (bits_per_word - 1) in
    let w = sc.ev_bits.(s / bits_per_word) lsr k in
    if w = 0 then next_event_from sc (t + bits_per_word - k) stop limit
    else min limit (t + ctz w 0)
  end

(* The first tick in [from, limit) whose wheel slot holds an entry, else
   [limit]. One revolution visits every slot, so the scan ends there; a
   wrap entry found early only makes the answer conservative. *)
let next_event sc from limit =
  next_event_from sc from (min limit (from + wheel_size)) limit

(* ----- telemetry instrumentation points -----

   Every site is guarded by the sink option: with tracing off nothing is
   allocated and nothing beyond the [match] executes, so enabling the
   sink can never change simulated behavior - only record it. *)

let node_event_name (node : node) =
  if node.n_kind = k_copy then "copy"
  else if node.n_kind = k_slice then "slice"
  else if node.n_trace_idx >= 0 then Opcode.to_string node.n_op
  else "?"

let emit st kind (node : node) ~a ~b =
  match st.sink with
  | None -> ()
  | Some sink ->
    if Sink.tracing sink then
      Sink.emit sink
        { Event.tick = st.now; kind; id = node.n_id;
          trace_idx = node.n_trace_idx;
          cluster = cluster_index node.n_cluster;
          name = node_event_name node; a; b }

let take_sample st sink =
  Sink.sample sink ~tick:st.now ~iq_wide:st.iq.(0).iq_len
    ~iq_narrow:st.iq.(1).iq_len ~rob:st.rob_count st.counts

(* ----- latency model ----- *)

let mem_time st idx =
  let cfg = st.cfg in
  match cfg.Config.memory_model with
  | Config.Mem_trace_flags ->
    if Uop_soa.flag st.soa idx Uop_soa.flag_dl0 then
      if Uop_soa.flag st.soa idx Uop_soa.flag_ul1 then cfg.Config.mem_latency
      else cfg.Config.ul1_latency
    else cfg.Config.dl0_latency
  | Config.Mem_cache_sim ->
    (* the latency triple lives in [st.lat3] so a cache-model access does
       not build a tuple per uop *)
    Cache.Hierarchy.latency (Lazy.force st.memory) ~latencies:st.lat3
      (Uop_soa.mem_addr st.soa idx)

let exec_ticks st cluster (node : node) =
  let cfg = st.cfg in
  if node.n_kind = k_copy then 2 * cfg.Config.copy_latency
  else if node.n_kind = k_slice then 1
  else begin
    let idx = node.n_trace_idx in
    let op = node.n_op in
    let base = Opcode.latency op in
    match cluster with
    | Config.Wide ->
      if op = Opcode.Load then (2 * base) + (2 * mem_time st idx)
      else 2 * base
    | Config.Narrow ->
      (* the 8-bit backend is clocked 2x: one slow-cycle op takes one tick;
         memory hierarchy time is absolute and unchanged *)
      let alu = if cfg.Config.helper_fast_clock then base else 2 * base in
      if op = Opcode.Load then alu + (2 * mem_time st idx) else alu
  end

(* ----- rename-time width knowledge ----- *)

(* Operand [k] of the uop at trace index [i]. An immediate's value is
   architecturally visible at rename; a register operand reads the rename
   table, never the trace's source-value column. The policy supplies [i]
   and [k], and the columns are read unchecked, so both are checked
   here. *)
let source_info st i k =
  if i < 0 || i >= Uop_soa.length st.soa || k < 0 || k >= Uop_soa.nsrcs st.soa i
  then invalid_arg "Steer.source_info: operand out of range";
  let j = Uop_soa.src_base st.soa i + k in
  let r = Uop_soa.src_reg st.soa j in
  if r < 0 then
    Steer.src_info_bits
      ~narrow:
        (Width.is_narrow_bits ~bits:st.cfg.Config.narrow_bits
           (Uop_soa.src_val st.soa j))
      ~known:true ~cluster_code:Steer.cluster_code_none
  else begin
    let s = st.rename.(r) in
    if s < 0 then
      (* architectural value from before the trace window: a long-ready,
         conservatively wide register *)
      Steer.src_info_bits ~narrow:false ~known:true
        ~cluster_code:Steer.cluster_code_none
    else begin
      let v = value_at st s in
      let cluster_code =
        match v.v_cluster with
        | Config.Wide -> Steer.cluster_code_wide
        | Config.Narrow -> Steer.cluster_code_narrow
      in
      if v.v_done then
        Steer.src_info_bits ~narrow:v.v_narrow ~known:true ~cluster_code
      else
        Steer.src_info_bits ~narrow:v.v_pred_narrow ~known:false ~cluster_code
    end
  end

let eflags_index = Reg.to_index Reg.Eflags

let flags_in_narrow st () =
  let s = st.rename.(eflags_index) in
  s >= 0 && (value_at st s).v_cluster = Config.Narrow

let occupancy_lt st c limit =
  float_of_int st.iq.(cluster_index c).iq_len
  /. float_of_int st.cfg.Config.iq_size
  < limit

let ready_backlog st c = st.backlog.(cluster_index c)

let backlog_ewma_gt st c limit = st.backlog_ewma.(cluster_index c) > limit

let rob_occupancy_lt st limit =
  float_of_int st.rob_count /. float_of_int st.cfg.Config.rob_size < limit

let get_ctx st =
  match st.steer_ctx with Some ctx -> ctx | None -> assert false

(* ----- creation ----- *)

let create ?sink ~accounting ~check ~poison ~skip ~drop_idx ~tiny_pools
    cfg decide trace =
  ( match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Pipeline: " ^ msg) );
  let sc = Domain.DLS.get scratch_key in
  reset_scratch ~tiny_pools sc cfg;
  let soa = Trace.soa trace in
  let st =
    {
      cfg; decide; sink; soa;
      trace_len = Uop_soa.length soa;
      accounting;
      check;
      poison;
      skip;
      drop_idx;
      census = Array.make 6 0;
      sc;
      seq = 0;
      steer_ctx = None;
      lat3 = (cfg.Config.dl0_latency, cfg.Config.ul1_latency, cfg.Config.mem_latency);
      stall_src = Sr_none;
      wflush_until = 0;
      preds = Bundle.create ~entries:cfg.Config.wpred_entries ~conf_bits:cfg.Config.conf_bits ();
      counts = Counts.make ();
      fetch_idx = 0; fetch_resume = 0; fe_code = -1;
      rename = sc.rename;
      iq = sc.iqs;
      rob_buf = sc.rob_buf;
      rob_cap = Array.length sc.rob_buf;
      rob_head = 0;
      rob_count = 0;
      mob_count = 0;
      backlog = [| 0; 0 |];
      backlog_ewma = [| 0.; 0. |];
      memory = lazy (Cache.Hierarchy.create ());
      gshare = lazy (Branch_predictor.create ());
      tcache = lazy (Trace_cache.create ());
      regfile =
        Regfile.create ~wide_regs:cfg.Config.wide_regs
          ~narrow_regs:cfg.Config.narrow_regs ();
      now = 0;
      quiet_since = 0;
      avail_soon = 0;
      iss_issued = 0; iss_ready = 0; iss_capable = 0; iss_removed = 0;
      wait_class = 0; lstamp = 0; issue_visits = 0; wakeup_touches = 0;
      dis_demand_w = 0; dis_demand_n = 0;
      rsteer_n = 0;
      split_prev = -1;
    }
  in
  (* the steering context is one record of closures over [st], built once
     per run; every per-uop query through it returns an immediate *)
  st.steer_ctx <-
    Some
      {
        Steer.cfg = st.cfg;
        preds = st.preds;
        uops = Steer.uops_of_soa soa;
        source_info = (fun i k -> source_info st i k);
        flags_in_narrow = flags_in_narrow st;
        occupancy_lt = occupancy_lt st;
        ready_backlog = ready_backlog st;
        backlog_ewma_gt = backlog_ewma_gt st;
        rob_occupancy_lt = rob_occupancy_lt st;
      };
  st

(* ----- wakeup and census -----

   A queued node can issue once every dependence is readable in its
   cluster (or, under CR's remote reads, in either), and between
   rebuilds readability only grows. So each queue keeps its ready
   occupants in a list, and a node joins it when the last value it
   waits on turns readable, as a wakeup/select issue queue does; an
   issue round reads only that list:
   - a node is checked in one pass over its dependences when it enters
     a queue ([enqueue_iq]); if it must wait, it is linked to each
     dependence it cannot read, under a fresh listing stamp, and counts
     those links ([n_nwait]);
   - a write that makes a value readable ([complete_normal],
     [complete_slice], [complete_copy]) wakes the value's edges: an edge
     whose consumer now reads the value is consumed, once, and the
     consumer's last one puts it in the ready list. Waking rescans no
     node's dependences;
   - the three writes that make a value readable in the other cluster at
     [now + 2] (replicated register file, LR, replicated slice finals)
     wake them again at that tick ([publish_later], [wake_due]);
   - a flush or replay resets values and moves nodes, so both queues
     are relisted, relinked and recounted after them ([relist]). A copy
     whose value [replay] reset is dead: the relist lists it and counts
     it in [iq_ndead], so the queue's next round visits its whole list
     and takes it out and frees it in queue order, where the full walk
     this replaces did.
   An edge acts only while its stamp is its consumer's current one and
   the consumer is queued and waiting, so the edges of an older listing,
   and those reaching a recycled slot, change nothing; the next wakeup
   of their value unlinks them, as it does the edges it consumes.

   Cycle accounting gives each idle issue slot to a blocked queue
   occupant, memory before copy before operands. The class a node counts
   under is a function of its dependences' state, so with accounting on
   the pass that checks a node classifies it, a wakeup reclassifies the
   waiting consumers it reaches, and each queue keeps its three counts
   current instead of rescanning every occupant in every idle round. A
   value's [v_copy_inflight*] moves a node's class but not its
   readiness, so [make_copy] wakes its consumers only under accounting.
   Invariants: at every issue round each queue's ready list is what a
   full [deps_ready] walk of the queue finds, and each waiting node
   counts the dependences it cannot read; after the round the census
   holds what a [blocked_reason] walk would count (For_testing checks
   all three). *)

(* Link [node] to [v]. The links live in two int arrays of the arena,
   threaded newest first from each value's [v_cons]: no pointer store,
   so no write barrier, and one run's links sit together in memory. An
   edge freed with its value is reused before the arrays grow, so they
   follow the values in flight, not the trace. *)
let add_consumer sc (v : vstate) (node : node) =
  let e =
    if sc.e_free >= 0 then begin
      let e = sc.e_free in
      sc.e_free <- sc.e_next.(e);
      e
    end
    else begin
      let e = sc.e_len in
      if e = Array.length sc.e_node then begin
        let grow a = Array.init (2 * e) (fun i -> if i < e then a.(i) else 0) in
        sc.e_node <- grow sc.e_node;
        sc.e_next <- grow sc.e_next;
        sc.e_stamp <- grow sc.e_stamp
      end;
      sc.e_len <- e + 1;
      e
    end
  in
  sc.e_node.(e) <- node.n_slot;
  sc.e_stamp.(e) <- node.n_lstamp;
  sc.e_next.(e) <- v.v_cons;
  if v.v_cons < 0 then v.v_cons_last <- e;
  v.v_cons <- e

(* [a] when [lane] is 0, [b] when it is 1 *)
let[@inline] pick lane a b = a lxor ((a lxor b) land (-lane))

(* 1 when [v] is unreadable now in [lane], or under remote reads
   ([remote] = 1) in both lanes: [deps_ready]'s rule, with bit
   operations instead of branches, since it runs at every dispatch and
   every wakeup *)
let[@inline] unavail now remote lane (v : vstate) =
  let u0 = Bool.to_int (v.v_avail0 > now) and u1 = Bool.to_int (v.v_avail1 > now) in
  (remote land u0 land u1) lor ((1 - remote) land pick lane u0 u1)

(* The bit of dependence [k] in a wait mask. Dependences past the 61st
   share the last bit, and [link] reads those afresh. *)
let[@inline] dep_bit k = 1 lsl (if k < 61 then k else 61)

(* The mask of [node]'s unreadable dependences from [k] on. It calls
   nothing, so the loop stays in registers. *)
let rec waits_from vp now remote lane (node : node) k m =
  if k >= node.n_ndeps then m
  else begin
    let u = unavail now remote lane vp.(node.n_dep_v.(k)) in
    waits_from vp now remote lane node (k + 1) (m lor (u * dep_bit k))
  end

(* [waits_from] over every dependence, also classifying the node for the
   census ([blocked_reason]'s rule) into [st.wait_class]: 3 * lane +
   class (0 memory, 1 copy, 2 operands). *)
let classify st vp lane (node : node) =
  let now = st.now in
  let remote = Bool.to_int node.n_remote_reads in
  let mem = ref 0 and cop = ref 0 and m = ref 0 in
  for k = 0 to node.n_ndeps - 1 do
    let v = vp.(node.n_dep_v.(k)) in
    let u = unavail now remote lane v in
    let done_ = Bool.to_int v.v_done in
    let mem_dep = Bool.to_int v.v_from_load land (1 - done_) in
    let inflight =
      pick lane (Bool.to_int v.v_copy_inflight0) (Bool.to_int v.v_copy_inflight1)
    in
    m := !m lor (u * dep_bit k);
    mem := !mem lor (u land mem_dep);
    cop := !cop lor (u land (1 - mem_dep) land (done_ lor inflight))
  done;
  st.wait_class <- (3 * lane) + 2 - (!cop lor !mem) - !mem;
  !m

(* The lane a queued node reads its dependences in: a copy reads its
   value in the value's cluster, any other node in its own. (Under CR's
   remote reads, either lane will do; copies never read remotely.) *)
let[@inline] read_lane st (node : node) =
  if node.n_kind = k_copy then cluster_index (value_at st node.n_cv).v_cluster
  else cluster_index node.n_cluster

(* A queued node's state in one pass over its dependences: the mask of
   those it cannot read, 0 when it can issue; under accounting the pass
   also leaves its census index in [st.wait_class]. A copy counts as
   waiting on a copy; a dead copy (its value was reset) counts as ready,
   so that its queue's next round takes it out. *)
let[@inline] wait_state st (node : node) =
  let vp = st.sc.p_vstates in
  let lane = cluster_index node.n_cluster in
  if node.n_kind = k_copy then begin
    st.wait_class <- (3 * lane) + 1;
    let cv = vp.(node.n_cv) in
    if cv.v_epoch <> node.n_copy_epoch then 0
    else waits_from vp st.now 0 (cluster_index cv.v_cluster) node 0 0
  end
  else if st.accounting then classify st vp lane node
  else waits_from vp st.now (Bool.to_int node.n_remote_reads) lane node 0 0

(* Link [node], under a fresh listing stamp, to each dependence [m]
   marks (past the 61st, to each it cannot read), and count them as the
   dependences it waits on. *)
let link st (node : node) m =
  st.lstamp <- st.lstamp + 1;
  node.n_lstamp <- st.lstamp;
  let remote = Bool.to_int node.n_remote_reads and lane = read_lane st node in
  let n = ref 0 in
  for k = 0 to node.n_ndeps - 1 do
    let v = value_at st node.n_dep_v.(k) in
    if
      if k < 61 then m land dep_bit k <> 0
      else unavail st.now remote lane v = 1
    then begin
      add_consumer st.sc v node;
      incr n
    end
  done;
  node.n_nwait <- !n

let census_count st (node : node) c =
  node.n_census <- c;
  st.census.(c) <- st.census.(c) + 1

let census_leave st (node : node) =
  st.census.(node.n_census) <- st.census.(node.n_census) - 1

(* a copy whose value [replay] reset: it can never issue *)
let[@inline] dead_copy vp (node : node) =
  node.n_kind = k_copy && vp.(node.n_cv).v_epoch <> node.n_copy_epoch

(* 1 for a node the helper's 8-bit units could host: a copy, or an op
   they execute *)
let[@inline] capable (node : node) =
  Bool.to_int (node.n_trace_idx < 0 || Opcode.helper_capable node.n_op)

(* Put a queued node that can issue, or a dead copy, into its queue's
   ready list, and count it as capable or dead. *)
let ready_insert st (node : node) =
  let q = st.iq.(cluster_index node.n_cluster) in
  if dead_copy st.sc.p_vstates node then begin
    node.n_cap <- 0;
    q.iq_ndead <- q.iq_ndead + 1
  end
  else begin
    node.n_cap <- capable node;
    q.iq_ncap <- q.iq_ncap + node.n_cap
  end;
  set_bit q.iq_bits node.n_qpos;
  q.iq_nready <- q.iq_nready + 1;
  node.n_ready <- true

(* empty a queue's ready list, before it is rebuilt *)
let unlist_all st (q : iq) =
  for k = 0 to q.iq_end - 1 do
    let s = q.iq_slots.(k) in
    if s >= 0 then (node_at st s).n_ready <- false
  done;
  Array.fill q.iq_bits 0 (Array.length q.iq_bits) 0;
  q.iq_nready <- 0;
  q.iq_ncap <- 0;
  q.iq_ndead <- 0

(* A node that just joined a queue: checked, counted, and listed or
   linked. A listed node holds no stamp (0), so no edge acts on it. *)
let enlist st (node : node) =
  let m = wait_state st node in
  if st.accounting then census_count st node st.wait_class;
  if m = 0 then begin
    node.n_lstamp <- 0;
    ready_insert st node
  end
  else link st node m

(* under accounting, reclassify a node a wakeup reached *)
let recount st (node : node) =
  ignore (wait_state st node);
  let cls = st.wait_class in
  if cls <> node.n_census then begin
    census_leave st node;
    census_count st node cls
  end

(* Unlink edge [e] from [v]'s chain onto the free edges. [prev] is the
   next-newer edge (-1 when [e] is the newest) and [next] the next-older
   one (-1 when [e] is the oldest). *)
let unlink_edge sc (v : vstate) prev e next =
  if prev < 0 then v.v_cons <- next else sc.e_next.(prev) <- next;
  if next < 0 then v.v_cons_last <- prev;
  sc.e_next.(e) <- sc.e_free;
  sc.e_free <- e

(* [v] changed: walk its edges from [e] on, [prev] the one before [e].
   An edge acts while its consumer is queued under the listing that made
   it ([n_lstamp]) and not yet ready. An edge whose value the consumer
   can now read is consumed: the consumer's last one makes it ready.
   Under accounting each consumer reached is reclassified too. Any other
   edge is dead (of an older listing, of a recycled slot, or of a
   consumer that issued or is ready) and can never act again. The walk
   unlinks consumed and dead edges onto the free edges, so a value
   waited on for long keeps only the edges that can still act. *)
let rec wake_from st sc (v : vstate) prev e =
  if e >= 0 then begin
    let next = sc.e_next.(e) in
    let c = sc.p_nodes.(sc.e_node.(e)) in
    if c.n_lstamp = sc.e_stamp.(e) && c.n_queued && not c.n_ready then begin
      st.wakeup_touches <- st.wakeup_touches + 1;
      let consumed =
        unavail st.now (Bool.to_int c.n_remote_reads) (read_lane st c) v = 0
      in
      if consumed then begin
        c.n_nwait <- c.n_nwait - 1;
        if c.n_nwait = 0 then ready_insert st c
      end;
      if st.accounting then recount st c;
      if consumed then begin
        unlink_edge sc v prev e next;
        wake_from st sc v prev next
      end
      else wake_from st sc v e next
    end
    else begin
      unlink_edge sc v prev e next;
      wake_from st sc v prev next
    end
  end

(* [v] changed: wake its linked nodes *)
let wake_consumers st (v : vstate) = wake_from st st.sc v (-1) v.v_cons

(* [v] becomes readable in the other cluster at [now + 2]: the event
   horizon stops there, and [wake_due] wakes its consumers then *)
let publish_later st (v : vstate) =
  st.avail_soon <- st.now + 2;
  let sc = st.sc in
  let slot = (st.now + 2) land 3 in
  let n = sc.recheck_n.(slot) in
  let arr = sc.recheck.(slot) in
  if n = Array.length arr then
    sc.recheck.(slot) <- Array.init (2 * n) (fun i -> if i < n then arr.(i) else 0);
  sc.recheck.(slot).(n) <- v.v_slot;
  sc.recheck_n.(slot) <- n + 1

let wake_slot st sc slot n =
  let arr = sc.recheck.(slot) in
  for k = 0 to n - 1 do
    wake_consumers st sc.p_vstates.(arr.(k))
  done;
  sc.recheck_n.(slot) <- 0

(* the start of a tick: the wakeups [publish_later] set for it *)
let[@inline] wake_due st =
  let sc = st.sc in
  let slot = st.now land 3 in
  let n = sc.recheck_n.(slot) in
  if n > 0 then wake_slot st sc slot n

(* After a flush or replay: squeeze both queues, then check, link and
   count every occupant afresh, in queue order, so each ready list is
   rebuilt in order. *)
let relist st =
  if st.accounting then Array.fill st.census 0 (Array.length st.census) 0;
  for lane = 0 to 1 do
    let q = st.iq.(lane) in
    unlist_all st q;
    iq_compact st.sc.p_nodes q;
    for k = 0 to q.iq_end - 1 do
      enlist st (node_at st q.iq_slots.(k))
    done
  done

(* ----- dispatch helpers ----- *)

(* Register dependences of the uop at [trace_idx], read straight off the
   SoA source columns into the dispatch scratch (value slot, epoch)
   arrays — the seed built a [(vstate * int) list] per uop here. *)
let collect_reg_deps st trace_idx =
  let sc = st.sc in
  let lo = Uop_soa.src_base st.soa trace_idx in
  let ns = Uop_soa.nsrcs st.soa trace_idx in
  sc.dp_n <- 0;
  ensure_dp_cap sc ns;
  for j = lo to lo + ns - 1 do
    let r = Uop_soa.src_reg st.soa j in
    if r >= 0 then begin
      let s = st.rename.(r) in
      if s >= 0 then begin
        sc.dp_v.(sc.dp_n) <- s;
        sc.dp_e.(sc.dp_n) <- (value_at st s).v_epoch;
        sc.dp_n <- sc.dp_n + 1
      end
    end
  done

let enqueue_iq st cluster node =
  node.n_disp_tick <- st.now;
  iq_append st.sc.p_nodes st.iq.(cluster_index cluster) node;
  enlist st node;
  emit st Event.Dispatch node ~a:0 ~b:0

let iq_free st cluster =
  st.cfg.Config.iq_size - st.iq.(cluster_index cluster).iq_len

(* Mark the scratch dependences that need a copy before they are usable
   in [cluster] (a value produced in the other cluster needs no copy when
   one is already in flight, already delivered, or when LR will replicate
   it), and tally the (wide, narrow) issue-queue slots those copies will
   occupy into [dis_demand_w/n] — copies dispatch into the producing
   value's cluster. *)
let mark_copies_needed st ~cluster ~no_copies =
  let sc = st.sc in
  let ci = cluster_index cluster in
  st.dis_demand_w <- 0;
  st.dis_demand_n <- 0;
  for k = 0 to sc.dp_n - 1 do
    let v = value_at st sc.dp_v.(k) in
    let need =
      (not no_copies)
      && v.v_cluster <> cluster
      && v_avail v ci = never
      && (not (v_copy_inflight v ci))
      && not v.v_lr
    in
    sc.dp_need.(k) <- need;
    if need then
      match v.v_cluster with
      | Config.Wide -> st.dis_demand_w <- st.dis_demand_w + 1
      | Config.Narrow -> st.dis_demand_n <- st.dis_demand_n + 1
  done

let make_copy st ~(cv : vstate) ~target ~prefetch ~publishes =
  let source_cluster = cv.v_cluster in
  let ti = cluster_index target in
  let node = alloc_node st in
  node.n_kind <- k_copy;
  node.n_cv <- cv.v_slot;
  (* held twice: as [n_cv] and as the one dependence *)
  cv.v_refs <- cv.v_refs + 2;
  node.n_copy_target <- ti;
  node.n_copy_epoch <- cv.v_epoch;
  node.n_copy_publishes <- publishes;
  node.n_cluster <- source_cluster;
  ensure_node_dep_cap node 1;
  node.n_dep_v.(0) <- cv.v_slot;
  node.n_dep_e.(0) <- cv.v_epoch;
  node.n_ndeps <- 1;
  set_v_copy_inflight cv ti true;
  if st.accounting then wake_consumers st cv;
  if prefetch then begin
    set_v_prefetched cv ti true;
    bump st Counts.prefetch_copies
  end
  else cv.v_demand_copied <- true;
  bump st Counts.copies;
  bump st Counts.copy_dispatched;
  enqueue_iq st source_cluster node

(* Train the CP predictor with the dying value's copy history on a
   rename-table overwrite, and let go of the slot's hold on it. (The
   seed also kept an undo log here; nothing ever consumed it, so it is
   gone.) *)
let rename_write st i (v : vstate) =
  let prev = st.rename.(i) in
  hold v;
  if prev >= 0 && st.cfg.Config.scheme.Config.cp then begin
    let p = value_at st prev in
    Copy_predictor.update st.preds.Bundle.copy p.v_pc
      ~copied:p.v_demand_copied
  end;
  st.rename.(i) <- v.v_slot;
  release st prev

(* Point the uop's destination register, then the flags when it writes
   them, at its new value — the generator's writeback order. *)
let rename_dest st ~trace_idx ~op (v : vstate) =
  let d = Uop_soa.dst_index st.soa trace_idx in
  if d >= 0 then rename_write st d v;
  if Opcode.writes_flags op then rename_write st eflags_index v

(* Credit a consumed prefetch, once per (value, cluster), over the
   scratch dependences. *)
let credit_prefetch_deps st cluster =
  let i = cluster_index cluster in
  let sc = st.sc in
  for k = 0 to sc.dp_n - 1 do
    let v = value_at st sc.dp_v.(k) in
    if v_prefetched v i && (not (v_prefetch_used v i)) && v.v_cluster <> cluster
    then begin
      set_v_prefetch_used v i true;
      bump st Counts.prefetch_useful
    end
  done

exception Dispatch_stall

(* ----- dispatch ----- *)

let dispatch_split st ~trace_idx ~op ~pc ~pred_narrow =
  let cfg = st.cfg in
  let sc = st.sc in
  let has_dest = Uop_soa.has_dest st.soa trace_idx in
  let slices = 4 in
  let produces_value = has_dest || Opcode.writes_flags op in
  let result_copies = if has_dest then slices else 0 in
  (* the byte lanes read their sources as 8-bit slices through the same
     cross-cluster byte paths the CR tag scheme uses, so no source copies
     are charged - only queue slots, issue slots and the chained latency *)
  if st.rob_count + slices > cfg.Config.rob_size then begin
    st.stall_src <- Sr_rob;
    raise Dispatch_stall
  end;
  if iq_free st Config.Narrow < slices + result_copies then begin
    st.stall_src <- Sr_iq;
    raise Dispatch_stall
  end;
  if produces_value && Regfile.free_count st.regfile Config.Narrow < slices then begin
    st.stall_src <- Sr_regfile;
    raise Dispatch_stall
  end;
  credit_prefetch_deps st Config.Narrow;
  let dest =
    if produces_value then
      (alloc_vstate st ~pc
         ~narrow:
           (Width.is_narrow_bits ~bits:cfg.Config.narrow_bits
              (Uop_soa.result st.soa trace_idx))
         ~pred_narrow ~cluster:Config.Narrow).v_slot
    else -1
  in
  (* carry-rippling ops chain lane k+1 on lane k's carry-out; bitwise,
     move and store lanes are independent byte operations *)
  let ripples =
    match op with
    | Opcode.Add | Opcode.Sub | Opcode.Cmp -> true
    | Opcode.And | Opcode.Or | Opcode.Xor | Opcode.Mov | Opcode.Store
    | Opcode.Shl | Opcode.Shr | Opcode.Lea | Opcode.Mul | Opcode.Div
    | Opcode.Load | Opcode.Branch_cond | Opcode.Branch_uncond
    | Opcode.Fp_add | Opcode.Fp_mul | Opcode.Fp_div | Opcode.Copy
    | Opcode.Nop -> false
  in
  st.split_prev <- -1;
  for k = 0 to slices - 1 do
    let final = k = slices - 1 in
    let node = alloc_node st in
    node.n_trace_idx <- trace_idx;
    node.n_op <- op;
    node.n_kind <- k_slice;
    node.n_slice_final <- final;
    node.n_cluster <- Config.Narrow;
    let chain = if ripples then st.split_prev else -1 in
    let extra = if chain >= 0 then 1 else 0 in
    ensure_node_dep_cap node (sc.dp_n + extra);
    if extra = 1 then begin
      let c = value_at st chain in
      node.n_dep_v.(0) <- chain;
      node.n_dep_e.(0) <- c.v_epoch;
      hold c
    end;
    for j = 0 to sc.dp_n - 1 do
      let v = sc.dp_v.(j) in
      node.n_dep_v.(extra + j) <- v;
      node.n_dep_e.(extra + j) <- sc.dp_e.(j);
      hold (value_at st v)
    done;
    node.n_ndeps <- sc.dp_n + extra;
    let slice_dest =
      if final then dest
      else
        (alloc_vstate st ~pc ~narrow:true ~pred_narrow:true
           ~cluster:Config.Narrow).v_slot
    in
    node.n_dest <- slice_dest;
    node.n_reason <- r_ir;
    node.n_remote_reads <- true;
    if not final then st.split_prev <- slice_dest;
    if slice_dest >= 0 then begin
      hold (value_at st slice_dest);
      if Regfile.allocate st.regfile Config.Narrow then node.n_alloc <- 1
    end;
    enqueue_iq st Config.Narrow node;
    rob_add st node
  done;
  st.split_prev <- -1;
  if dest >= 0 then begin
    let d = value_at st dest in
    rename_dest st ~trace_idx ~op d;
    (* publish the result to the wide cluster as a burst of byte copies;
       only the last one makes the value visible there (§3.7). A
       replicated register file publishes through its write ports
       instead. *)
    if has_dest && not cfg.Config.replicated_regfile then
      for k = 0 to slices - 1 do
        make_copy st ~cv:d ~target:Config.Wide ~prefetch:false
          ~publishes:(k = slices - 1)
      done
  end;
  bump st Counts.split_dispatched

let dispatch_steered st ~trace_idx ~op ~pc ~pred_narrow ~pred_confident
    ~cluster ~reason =
  let cfg = st.cfg in
  let scheme = cfg.Config.scheme in
  let sc = st.sc in
  let has_dest = Uop_soa.has_dest st.soa trace_idx in
  let produces_value = has_dest || Opcode.writes_flags op in
  let remote_reads = reason = r_cr in
  mark_copies_needed st ~cluster
    ~no_copies:(remote_reads || cfg.Config.replicated_regfile);
  let ci = cluster_index cluster in
  let own_w = 1 - ci and own_n = ci in
  if st.rob_count >= cfg.Config.rob_size then begin
    st.stall_src <- Sr_rob;
    raise Dispatch_stall
  end;
  if iq_free st Config.Wide < st.dis_demand_w + own_w then begin
    st.stall_src <- Sr_iq;
    raise Dispatch_stall
  end;
  if iq_free st Config.Narrow < st.dis_demand_n + own_n then begin
    st.stall_src <- Sr_iq;
    raise Dispatch_stall
  end;
  if produces_value && Regfile.free_count st.regfile cluster = 0 then begin
    st.stall_src <- Sr_regfile;
    raise Dispatch_stall
  end;
  let is_mem = op = Opcode.Load || op = Opcode.Store in
  if is_mem then begin
    if st.mob_count >= cfg.Config.mob_size then begin
      st.stall_src <- Sr_mob;
      raise Dispatch_stall
    end;
    st.mob_count <- st.mob_count + 1
  end;
  for k = 0 to sc.dp_n - 1 do
    if sc.dp_need.(k) then
      make_copy st ~cv:(value_at st sc.dp_v.(k)) ~target:cluster
        ~prefetch:false ~publishes:true
  done;
  credit_prefetch_deps st cluster;
  let dest =
    if produces_value then
      (alloc_vstate st ~pc
         ~narrow:
           (Width.is_narrow_bits ~bits:cfg.Config.narrow_bits
              (Uop_soa.result st.soa trace_idx))
         ~pred_narrow ~cluster).v_slot
    else -1
  in
  let lr_replicate =
    scheme.Config.lr && op = Opcode.Load && pred_narrow
    && ((not cfg.Config.confidence_gate) || pred_confident)
  in
  (* resolve the direction prediction in program order, here at rename *)
  let br_mispredicted =
    if op <> Opcode.Branch_cond then false
    else
      match cfg.Config.branch_model with
      | Config.Br_trace_flags -> Uop_soa.flag st.soa trace_idx Uop_soa.flag_mispredicted
      | Config.Br_gshare ->
        Branch_predictor.update (Lazy.force st.gshare) pc
          ~taken:(Uop_soa.flag st.soa trace_idx Uop_soa.flag_taken)
  in
  let node = alloc_node st in
  node.n_trace_idx <- trace_idx;
  node.n_op <- op;
  node.n_cluster <- cluster;
  ensure_node_dep_cap node sc.dp_n;
  for j = 0 to sc.dp_n - 1 do
    let v = sc.dp_v.(j) in
    node.n_dep_v.(j) <- v;
    node.n_dep_e.(j) <- sc.dp_e.(j);
    hold (value_at st v)
  done;
  node.n_ndeps <- sc.dp_n;
  node.n_dest <- dest;
  node.n_reason <- reason;
  node.n_is_mem <- is_mem;
  node.n_lr_replicate <- lr_replicate;
  node.n_br_mispredicted <- br_mispredicted;
  node.n_remote_reads <- remote_reads;
  if dest >= 0 then begin
    let d = value_at st dest in
    d.v_lr <- lr_replicate;
    d.v_from_load <- op = Opcode.Load;
    hold d;
    if Regfile.allocate st.regfile cluster then node.n_alloc <- ci;
    rename_dest st ~trace_idx ~op d
  end;
  enqueue_iq st cluster node;
  rob_add st node;
  (* CP: producer-side copy prefetching (§3.6). Narrow producers prefetch
     predicted copies to the wide cluster; wide producers of predicted
     narrow values prefetch toward the helper. *)
  if dest >= 0 && scheme.Config.cp && has_dest then begin
    let cp_hit = Copy_predictor.predict st.preds.Bundle.copy pc in
    let d = value_at st dest in
    if cluster = Config.Narrow && cp_hit && iq_free st Config.Narrow > 0 then
      make_copy st ~cv:d ~target:Config.Wide ~prefetch:true ~publishes:true
    else if
      cluster = Config.Wide && cp_hit && pred_narrow && pred_confident
      && iq_free st Config.Wide > 0
    then make_copy st ~cv:d ~target:Config.Narrow ~prefetch:true ~publishes:true
  end;
  bump st c_dispatch.(ci)

(* the policy's verdict on the uop at [trace_idx] *)
let decision st trace_idx =
  if st.cfg.Config.scheme.Config.helper then st.decide (get_ctx st) trace_idx
  else Steer.steer_wide

(* A verdict as an int, so the frontend remembers the one its stalled
   uop got without a pointer store *)
let decision_code = function
  | Steer.Split -> 0
  | Steer.Steer cluster -> 1 + cluster_index cluster
  | Steer.Steer_narrow reason -> 3 + reason_code reason

let dispatch_uop st ~trace_idx =
  let op = Uop_soa.op st.soa trace_idx and pc = Uop_soa.pc st.soa trace_idx in
  let pred_narrow = Width_predictor.predict_narrow st.preds.Bundle.width pc in
  let pred_confident = Width_predictor.predict_confident st.preds.Bundle.width pc in
  bump st Counts.wpred_lookup;
  let decision = decision st trace_idx in
  st.fe_code <- decision_code decision;
  collect_reg_deps st trace_idx;
  match decision with
  | Steer.Split -> dispatch_split st ~trace_idx ~op ~pc ~pred_narrow
  | Steer.Steer cluster ->
    dispatch_steered st ~trace_idx ~op ~pc ~pred_narrow ~pred_confident
      ~cluster ~reason:r_none
  | Steer.Steer_narrow reason ->
    dispatch_steered st ~trace_idx ~op ~pc ~pred_narrow ~pred_confident
      ~cluster:Config.Narrow ~reason:(reason_code reason)

exception Fetch_miss

let rec frontend_loop st budget =
  if budget > 0 && st.fetch_idx < st.trace_len then begin
    ( match st.cfg.Config.frontend_model with
    | Config.Fe_ideal -> ()
    | Config.Fe_trace_cache ->
      let pc = Uop_soa.pc st.soa st.fetch_idx in
      if not (Trace_cache.lookup (Lazy.force st.tcache) pc) then begin
        (* build the trace line from the UL1 instruction stream *)
        st.fetch_resume <- st.now + (2 * st.cfg.Config.ul1_latency);
        bump st Counts.tc_miss;
        raise Fetch_miss
      end );
    dispatch_uop st ~trace_idx:st.fetch_idx;
    st.fetch_idx <- st.fetch_idx + 1;
    frontend_loop st (budget - 1)
  end

let frontend st =
  if st.now >= st.fetch_resume then begin
    try frontend_loop st st.cfg.Config.decode_width
    with Dispatch_stall | Fetch_miss -> ()
  end

(* ----- issue ----- *)

(* Readiness is availability alone. A squashed-and-resteered producer
   resets its value (epoch bump kills in-flight copies, avail returns to
   never), and every consumer - resteered or not - then waits for the
   re-execution to publish the value again. [deps_ready] is the rule the
   ready lists keep (see "Wakeup and census"); only For_testing's full
   walk ([ready_verify]) evaluates it. *)
let rec deps_avail_from st vp i (node : node) k =
  k >= node.n_ndeps
  || (v_avail vp.(node.n_dep_v.(k)) i <= st.now
     && deps_avail_from st vp i node (k + 1))

let rec deps_avail_remote_from st vp (node : node) k =
  k >= node.n_ndeps
  || ((let v = vp.(node.n_dep_v.(k)) in
       v.v_avail0 <= st.now || v.v_avail1 <= st.now)
     && deps_avail_remote_from st vp node (k + 1))

let deps_ready st vp cluster (node : node) =
  if node.n_remote_reads then deps_avail_remote_from st vp node 0
  else begin
    let i =
      if node.n_kind = k_copy then cluster_index vp.(node.n_cv).v_cluster
      else cluster_index cluster
    in
    deps_avail_from st vp i node 0
  end

(* The ready lists' reference: walk each queue in order and list the
   occupants a round must see, the dead copies and those [deps_ready]
   passes. Reached only from For_testing, before every issue round; it
   fails at the first difference from the ready list. *)
let ready_verify st =
  let vp = st.sc.p_vstates in
  for lane = 0 to 1 do
    let q = st.iq.(lane) in
    let cluster = if lane = 0 then Config.Wide else Config.Narrow in
    let fail what (node : node) =
      failwith
        (Printf.sprintf
           "ready list mismatch at tick %d, %s lane: node %d (trace index \
            %d, %s) %s"
           st.now (Accounting.lane_name lane) node.n_id node.n_trace_idx
           (node_event_name node) what)
    in
    let counts what kept walk =
      if kept <> walk then
        failwith
          (Printf.sprintf "%s mismatch at tick %d, %s lane: %d, walk %d" what
             st.now (Accounting.lane_name lane) kept walk)
    in
    let listed = ref 0 and live = ref 0 and cap = ref 0 and dead = ref 0 in
    for k = 0 to q.iq_end - 1 do
      let s = q.iq_slots.(k) in
      if s >= 0 then begin
        let node = node_at st s in
        incr live;
        if node.n_qpos <> k || not node.n_queued then
          fail "is out of place in the queue" node;
        let marked = q.iq_bits.(k lsr 5) land (1 lsl (k land 31)) <> 0 in
        if dead_copy vp node || deps_ready st vp cluster node then begin
          if not (marked && node.n_ready) then
            fail "can issue but is not in the ready list" node;
          if dead_copy vp node then incr dead else cap := !cap + capable node;
          incr listed
        end
        else if marked || node.n_ready then
          fail "is in the ready list but cannot issue" node
        else begin
          (* waiting: one unconsumed edge per dependence it cannot read *)
          let i =
            if node.n_kind = k_copy then cluster_index vp.(node.n_cv).v_cluster
            else lane
          in
          let blocked = ref 0 in
          for d = 0 to node.n_ndeps - 1 do
            let v = vp.(node.n_dep_v.(d)) in
            if
              if node.n_remote_reads then v.v_avail0 > st.now && v.v_avail1 > st.now
              else v_avail v i > st.now
            then incr blocked
          done;
          if node.n_nwait <> !blocked then
            fail
              (Printf.sprintf "waits on %d dependences but counts %d" !blocked
                 node.n_nwait)
              node
        end
      end
      else if q.iq_bits.(k lsr 5) land (1 lsl (k land 31)) <> 0 then
        failwith
          (Printf.sprintf "ready mark on a hole at tick %d, %s lane, position %d"
             st.now (Accounting.lane_name lane) k)
    done;
    for k = q.iq_end to (32 * Array.length q.iq_bits) - 1 do
      if q.iq_bits.(k lsr 5) land (1 lsl (k land 31)) <> 0 then
        failwith
          (Printf.sprintf "ready mark past the end at tick %d, %s lane, position %d"
             st.now (Accounting.lane_name lane) k)
    done;
    counts "ready count" q.iq_nready !listed;
    counts "queue length" q.iq_len !live;
    counts "capable count" q.iq_ncap !cap;
    counts "dead copy count" q.iq_ndead !dead
  done

(* [node] wins an issue slot and leaves its queue *)
let issue_node st cluster (q : iq) ~regread_id ~issue_id (node : node) =
  node.n_issued <- true;
  node.n_issue_tick <- st.now;
  emit st Event.Issue node ~a:node.n_disp_tick ~b:0;
  bump_by st regread_id node.n_ndeps;
  bump st issue_id;
  if st.accounting then census_leave st node;
  q.iq_ncap <- q.iq_ncap - node.n_cap;
  iq_leave q node;
  schedule st node (st.now + exec_ticks st cluster node)

(* One issue round over the queue's ready list, oldest first: issue the
   first [issue_width] nodes, and report the ready nodes left without a
   slot, the list's [capable] count of them (NREADY). The nodes left
   stay listed; blocked occupants are not visited, and the nodes left
   are not visited either. After a replay the list may hold dead copies
   ([iq_ndead]); that round visits the whole list instead, takes them
   out and frees them in queue order, and recounts. *)
let issue_walk st cluster (q : iq) =
  if st.check then ready_verify st;
  let i = cluster_index cluster in
  let width = st.cfg.Config.issue_width in
  let regread_id = c_regread.(i) and issue_id = c_issue.(i) in
  (* nothing in the walk allocates a record or grows the queue *)
  let nodes = st.sc.p_nodes in
  let bits = q.iq_bits and slots = q.iq_slots in
  let n = q.iq_nready in
  if q.iq_ndead = 0 then begin
    (* [iq_leave] clears each issued node's mark *)
    let m = min n width in
    let left = ref m and w = ref 0 in
    while !left > 0 do
      let word = bits.(!w) in
      if word = 0 then incr w
      else begin
        issue_node st cluster q ~regread_id ~issue_id
          nodes.(slots.((!w lsl 5) + low_bit word));
        decr left
      end
    done;
    q.iq_nready <- n - m;
    st.issue_visits <- st.issue_visits + m;
    st.iss_issued <- m;
    st.iss_removed <- m
  end
  else begin
    let vp = st.sc.p_vstates in
    let issued = ref 0 and dead = ref 0 and cap = ref 0 in
    for w = 0 to ((q.iq_end + 31) lsr 5) - 1 do
      let word = ref bits.(w) in
      while !word <> 0 do
        let node = nodes.(slots.((w lsl 5) + low_bit !word)) in
        word := !word land (!word - 1);
        if dead_copy vp node then begin
          if st.accounting then census_leave st node;
          iq_leave q node;
          free_node st node;
          incr dead
        end
        else if !issued < width then begin
          issue_node st cluster q ~regread_id ~issue_id node;
          incr issued
        end
        else cap := !cap + node.n_cap
      done
    done;
    q.iq_nready <- n - !issued - !dead;
    q.iq_ncap <- !cap;
    q.iq_ndead <- 0;
    st.issue_visits <- st.issue_visits + n;
    st.iss_issued <- !issued;
    st.iss_removed <- !issued + !dead
  end;
  st.iss_ready <- q.iq_nready;
  st.iss_capable <- q.iq_ncap

(* one issue round's update of the smoothed ready backlog *)
let[@inline] ewma_step e ready = (0.9 *. e) +. (0.1 *. float_of_int ready)

(* One issue round; results land in [iss_issued] (slots that did work),
   [iss_ready] (the NREADY leftover), [iss_capable] and [iss_removed]. *)
let issue_cluster st cluster =
  let i = cluster_index cluster in
  issue_walk st cluster st.iq.(i);
  st.backlog.(i) <- st.iss_ready;
  st.backlog_ewma.(i) <- ewma_step st.backlog_ewma.(i) st.iss_ready

(* ----- cycle accounting (top-down slot attribution) ----- *)

(* Why a blocked occupant cannot issue: scan its unavailable deps with
   the same availability rule as [deps_ready]. Memory wins over copy
   wins over plain operands, so one blocked node maps to exactly one
   category. *)
let rec blocked_scan st i remote (node : node) k mem cop =
  if k >= node.n_ndeps then
    if mem then Accounting.Memory
    else if cop then Accounting.Wait_copy
    else Accounting.Wait_operands
  else begin
    let v = value_at st node.n_dep_v.(k) in
    let avail =
      if remote then v.v_avail0 <= st.now || v.v_avail1 <= st.now
      else v_avail v i <= st.now
    in
    if avail then blocked_scan st i remote node (k + 1) mem cop
    else begin
      let mem_dep = v.v_from_load && not v.v_done in
      blocked_scan st i remote node (k + 1) (mem || mem_dep)
        (cop || ((not mem_dep) && (v.v_done || v_copy_inflight v i)))
    end
  end

let blocked_reason st cluster (node : node) =
  if node.n_kind = k_copy then Accounting.Wait_copy
  else
    blocked_scan st (cluster_index cluster) node.n_remote_reads node 0 false
      false

(* Attribution of a slot no queue occupant can explain: the machine is
   draining a width flush, starved by the frontend, dispatch-blocked on
   a full structure, or genuinely idle. *)
let empty_reason st ~narrow =
  if st.now < st.wflush_until then
    if narrow then Accounting.Drained else Accounting.Width_recovery
  else if st.now < st.fetch_resume then Accounting.Frontend
  else
    match st.stall_src with
    | Sr_none -> Accounting.Idle
    | Sr_mob -> Accounting.Memory
    | Sr_rob | Sr_iq | Sr_regfile -> Accounting.Dispatch

(* The census's reference: walk the queue and classify every occupant.
   Reached only from For_testing, which compares it with the census in
   every idle round and fails at the first difference. *)
let census_verify st cluster ~mem ~cop ~opr =
  let wmem = ref 0 and wcop = ref 0 and wopr = ref 0 in
  let q = st.iq.(cluster_index cluster) in
  for k = 0 to q.iq_end - 1 do
    let s = q.iq_slots.(k) in
    if s >= 0 then
      match blocked_reason st cluster (node_at st s) with
      | Accounting.Memory -> incr wmem
      | Accounting.Wait_copy -> incr wcop
      | _ -> incr wopr
  done;
  if mem <> !wmem || cop <> !wcop || opr <> !wopr then
    failwith
      (Printf.sprintf
         "census mismatch at tick %d, %s lane: counts memory %d copy %d \
          operands %d, walk memory %d copy %d operands %d"
         st.now
         (Accounting.lane_name (cluster_index cluster))
         mem cop opr !wmem !wcop !wopr)

(* Give up to [count] of the [left] idle slots to [cat], in each of
   [rounds] identical rounds; returns the slots still unclaimed. *)
let[@inline] take st ~lane ~rounds cat count left =
  let n = min left count in
  if n > 0 then Accounting.add st.counts ~lane cat (n * rounds);
  left - n

(* [rounds] issue rounds of [cluster] alike: [issued] slots did work;
   the idle rest is claimed first by blocked queue occupants (memory,
   then copy, then operands), and any slots beyond the occupant count by
   the empty-stage reason. Adds exactly [issue_width] slots per round,
   so the partition invariant holds by construction. *)
let account_issue_rounds st cluster ~rounds ~issued =
  let lane = cluster_index cluster in
  let width = st.cfg.Config.issue_width in
  if issued > 0 then
    Accounting.add st.counts ~lane Accounting.Issued (issued * rounds);
  let idle = width - issued in
  if idle > 0 then begin
    (* after the issue walk the queue holds only blocked occupants:
       issued and dead-copy nodes were taken out, and idle > 0
       means no ready node was left waiting for a slot *)
    let base = 3 * lane in
    let mem = st.census.(base)
    and cop = st.census.(base + 1)
    and opr = st.census.(base + 2) in
    if st.check then census_verify st cluster ~mem ~cop ~opr;
    let left = take st ~lane ~rounds Accounting.Memory mem idle in
    let left = take st ~lane ~rounds Accounting.Wait_copy cop left in
    let left = take st ~lane ~rounds Accounting.Wait_operands opr left in
    if left > 0 then
      Accounting.add st.counts ~lane
        (empty_reason st ~narrow:(cluster = Config.Narrow))
        (left * rounds)
  end;
  Accounting.rounds_add st.counts ~lane rounds

(* [rounds] commit rounds alike: [committed] slots retired; idle slots
   are all blamed on the ROB head (it blocks everything younger), or on
   the empty-stage reason when the ROB is empty. *)
let account_commit_rounds st ~rounds ~committed =
  let lane = Accounting.lane_commit in
  if committed > 0 then
    Accounting.add st.counts ~lane Accounting.Issued (committed * rounds);
  let idle = st.cfg.Config.commit_width - committed in
  if idle > 0 then begin
    let cat =
      if st.rob_count = 0 then empty_reason st ~narrow:false
      else begin
        let head = rob_peek st in
        if not head.n_issued then blocked_reason st head.n_cluster head
        else if head.n_is_mem then Accounting.Memory
        else Accounting.Wait_operands
      end
    in
    Accounting.add st.counts ~lane cat (idle * rounds)
  end;
  Accounting.rounds_add st.counts ~lane rounds

(* ----- width misprediction recovery ----- *)

(* Purge a queue, oldest first, of the squashed incarnations (marked)
   and of the copies whose value died; the copies are freed, and the
   nodes that stay are compacted toward the front in order. The ready
   list empties, and the census and the ready lists are rebuilt after
   the flush ([relist]). *)
let flush_purge st (q : iq) =
  unlist_all st q;
  (* nothing here allocates a record or grows the queue *)
  let vp = st.sc.p_vstates and slots = q.iq_slots in
  let kept = ref 0 in
  for k = 0 to q.iq_end - 1 do
    let s = slots.(k) in
    if s >= 0 then begin
      let node = node_at st s in
      if node.n_mark then node.n_queued <- false
      else if dead_copy vp node then begin
        node.n_queued <- false;
        free_node st node
      end
      else begin
        slots.(!kept) <- s;
        node.n_qpos <- !kept;
        incr kept
      end
    end
  done;
  q.iq_end <- !kept;
  q.iq_len <- !kept

(* drop dependences on values that no longer exist, in place, letting go
   of them *)
let rec compact_live_deps st (node : node) k w =
  if k >= node.n_ndeps then node.n_ndeps <- w
  else begin
    let v = node.n_dep_v.(k) in
    let e = node.n_dep_e.(k) in
    if (value_at st v).v_epoch = e then begin
      node.n_dep_v.(w) <- v;
      node.n_dep_e.(w) <- e;
      compact_live_deps st node (k + 1) (w + 1)
    end
    else begin
      release st v;
      compact_live_deps st node (k + 1) w
    end
  end

(* Fatal width misprediction recovery (§3.2): squash the offender and
   every younger uop in the NARROW backend and resteer them into the wide
   backend. Older work, and younger wide-backend work, is untouched — the
   resteered uops keep their ROB slots, so no rename rollback or refetch is
   needed. Their destination values are re-produced in the wide cluster:
   wide consumers then read them directly, and in-flight copies of the dead
   incarnations are killed by the value-epoch bump. No narrow-backend
   consumer of a resteered value can survive the squash, because it would
   itself be younger and in the narrow backend. *)
let flush_from st (offender : node) =
  let cfg = st.cfg in
  let sc = st.sc in
  st.rsteer_n <- 0;
  for k = 0 to st.rob_count - 1 do
    let node = rob_get st k in
    if
      node.n_id >= offender.n_id
      && node.n_cluster = Config.Narrow
      && node.n_kind <> k_copy
    then begin
      ensure_resteer_cap sc (st.rsteer_n + 1);
      sc.resteer.(st.rsteer_n) <- node.n_slot;
      st.rsteer_n <- st.rsteer_n + 1
    end
  done;
  let n_rest = st.rsteer_n in
  (* purge the narrow issue queue of the squashed incarnations, and of
     copies whose value is about to die *)
  for k = 0 to n_rest - 1 do
    let node = node_at st sc.resteer.(k) in
    emit st Event.Squash node ~a:0 ~b:0;
    node.n_gen <- node.n_gen + 1;
    node.n_issued <- false;
    (* a completed memory uop re-enters the memory order buffer *)
    if node.n_is_mem && node.n_done then st.mob_count <- st.mob_count + 1;
    (* the destination register moves to the wide file; tolerate a full
       pool (resteer cannot stall) by keeping the old entry *)
    if node.n_alloc = 1 then
      if Regfile.allocate st.regfile Config.Wide then begin
        Regfile.release st.regfile Config.Narrow;
        node.n_alloc <- 0
      end;
    node.n_done <- false;
    node.n_cluster <- Config.Wide;
    node.n_remote_reads <- false;
    if node.n_dest >= 0 then begin
      let dest = value_at st node.n_dest in
      reset_vstate dest;
      dest.v_cluster <- Config.Wide
    end
  done;
  for k = 0 to n_rest - 1 do
    (node_at st sc.resteer.(k)).n_mark <- true
  done;
  flush_purge st st.iq.(0);
  flush_purge st st.iq.(1);
  for k = 0 to n_rest - 1 do
    (node_at st sc.resteer.(k)).n_mark <- false
  done;
  (* collapse resteered IR slice groups: the final slice becomes the whole
     wide uop again, its three byte-lane companions become no-ops *)
  for k = 0 to n_rest - 1 do
    let node = node_at st sc.resteer.(k) in
    if node.n_kind = k_slice then begin
      if node.n_slice_final then begin
        node.n_kind <- k_normal;
        (* n_reason keeps Rir: the reason only matters for the fatal
           check of NARROW-cluster uops (Rir is never fatal there), and
           commit uses it to attribute this uop as demoted-to-wide *)
        (* drop the intra-group chain dependences: re-deriving register
           dependences from the rename state captured at dispatch is not
           possible, so keep only deps on values that still exist *)
        compact_live_deps st node 0 0
      end
      else begin
        node.n_slice_final <- false;
        node.n_done <- true
      end
    end
  done;
  (* re-dispatch into the wide backend (a transient resteer-buffer overflow
     of the issue queue is allowed), creating the copies the new cluster
     placement needs *)
  for k = 0 to n_rest - 1 do
    let node = node_at st sc.resteer.(k) in
    if not node.n_done then begin
      if not cfg.Config.replicated_regfile then
        for j = 0 to node.n_ndeps - 1 do
          let v = value_at st node.n_dep_v.(j) in
          if
            v.v_epoch = node.n_dep_e.(j)
            && v.v_cluster = Config.Narrow
            && v.v_avail0 = never
            && not v.v_copy_inflight0
          then
            make_copy st ~cv:v ~target:Config.Wide ~prefetch:false
              ~publishes:true
        done;
      node.n_disp_tick <- st.now;
      iq_append st.sc.p_nodes st.iq.(0) node
    end
  done;
  st.fetch_resume <- max st.fetch_resume (st.now + (2 * cfg.Config.width_flush_penalty));
  st.wflush_until <- max st.wflush_until (st.now + (2 * cfg.Config.width_flush_penalty));
  relist st;
  emit st Event.Flush offender ~a:n_rest ~b:0;
  bump st Counts.width_flush

(* ICS'05-style replay: only the offending uop re-executes, in the wide
   cluster; consumers simply wait for the value to be re-produced. Much
   cheaper than the flushing scheme - the trade-off section 4 discusses. *)
let replay st (node : node) =
  emit st Event.Replay node ~a:0 ~b:0;
  node.n_gen <- node.n_gen + 1;
  node.n_issued <- false;
  if node.n_is_mem then st.mob_count <- st.mob_count + 1;
  node.n_done <- false;
  node.n_cluster <- Config.Wide;
  node.n_remote_reads <- false;
  let dest = node.n_dest in
  if dest >= 0 then begin
    let d = value_at st dest in
    reset_vstate d;
    d.v_cluster <- Config.Wide
  end;
  if node.n_alloc = 1 then
    if Regfile.allocate st.regfile Config.Wide then begin
      Regfile.release st.regfile Config.Narrow;
      node.n_alloc <- 0
    end;
  (* re-executing in the wide cluster needs the sources there; without a
     replicated file some may live only in the narrow one *)
  if not st.cfg.Config.replicated_regfile then
    for j = 0 to node.n_ndeps - 1 do
      let v = value_at st node.n_dep_v.(j) in
      if
        v.v_epoch = node.n_dep_e.(j)
        && v.v_cluster = Config.Narrow
        && v.v_avail0 = never
        && not v.v_copy_inflight0
      then make_copy st ~cv:v ~target:Config.Wide ~prefetch:false ~publishes:true
    done;
  node.n_disp_tick <- st.now;
  iq_append st.sc.p_nodes st.iq.(0) node;
  (* without a replicated register file the re-produced value lands in the
     wide file only, but narrow consumers dispatched before the replay were
     wired copy-free (the value used to live beside them) - send it back *)
  if dest >= 0 && not st.cfg.Config.replicated_regfile then
    make_copy st ~cv:(value_at st dest) ~target:Config.Narrow ~prefetch:false
      ~publishes:true;
  relist st;
  bump st Counts.replay

(* Did this narrow-steered uop actually need the wide datapath? The
   ground-truth width checks read the SoA shape columns directly. *)
let narrow_execution_wrong st (node : node) =
  let bits = st.cfg.Config.narrow_bits in
  let idx = node.n_trace_idx in
  if idx < 0 then false
  else if node.n_reason = r_888 then
    not (Uop_soa.is_888_bits ~bits st.soa idx)
  else if node.n_reason = r_cr then
    (not (Uop_soa.carry_not_propagated_bits ~bits st.soa idx))
    || (node.n_op = Opcode.Load
       && not (Width.is_narrow_bits ~bits (Uop_soa.result st.soa idx)))
  else
    (* Rlive is proof-carried: the static bidirectional pass proved every
       bit above the narrow cut dead, so narrow execution is exact on all
       observable values even when the ground-truth values are wide — there
       is nothing for the dynamic check to verify. *)
    false

(* ----- writeback / completion ----- *)

let produces_value st (node : node) =
  Uop_soa.has_dest st.soa node.n_trace_idx || Opcode.writes_flags node.n_op

let train_predictors st (node : node) =
  let bits = st.cfg.Config.narrow_bits in
  let idx = node.n_trace_idx in
  let pc = Uop_soa.pc st.soa idx in
  if produces_value st node then begin
    Width_predictor.update st.preds.Bundle.width pc
      ~narrow:(Width.is_narrow_bits ~bits (Uop_soa.result st.soa idx));
    bump st Counts.wpred_update
  end;
  if
    st.cfg.Config.scheme.Config.cr
    && Opcode.carry_eligible node.n_op
    && Uop_soa.nsrcs st.soa idx = 2
  then
    Carry_predictor.update st.preds.Bundle.carry pc
      ~carry_local:(Uop_soa.carry_not_propagated_bits ~bits st.soa idx)

let classify_prediction st (node : node) ~fatal =
  if produces_value st node then begin
    let narrow =
      Width.is_narrow_bits ~bits:st.cfg.Config.narrow_bits
        (Uop_soa.result st.soa node.n_trace_idx)
    in
    let predicted =
      if node.n_dest >= 0 then (value_at st node.n_dest).v_pred_narrow
      else narrow
    in
    if fatal then bump st Counts.wpred_fatal
    else if predicted = narrow then bump st Counts.wpred_correct
    else bump st Counts.wpred_nonfatal
  end

let complete_copy st (node : node) =
  let cv = value_at st node.n_cv in
  if cv.v_epoch = node.n_copy_epoch then begin
    let i = node.n_copy_target in
    if node.n_copy_publishes then begin
      set_v_avail cv i (min (v_avail cv i) st.now);
      wake_consumers st cv
    end;
    bump st Counts.copy_completed;
    bump st c_regwrite.(i)
  end

let complete_slice st (node : node) =
  if node.n_dest >= 0 then begin
    let v = value_at st node.n_dest in
    v.v_done <- true;
    v.v_avail1 <- st.now;
    if node.n_slice_final && st.cfg.Config.replicated_regfile then begin
      v.v_avail0 <- min v.v_avail0 (st.now + 2);
      publish_later st v;
      bump st c_regwrite.(0)
    end;
    wake_consumers st v
  end;
  if node.n_slice_final then begin
    classify_prediction st node ~fatal:false;
    train_predictors st node
  end;
  bump st c_alu.(1);
  bump st c_regwrite.(1)

let complete_normal st (node : node) =
  let idx = node.n_trace_idx in
  if node.n_is_mem then begin
    st.mob_count <- st.mob_count - 1;
    bump st
      ( if Uop_soa.flag st.soa idx Uop_soa.flag_dl0 then
          if Uop_soa.flag st.soa idx Uop_soa.flag_ul1 then Counts.mem_main else Counts.mem_ul1
        else Counts.mem_dl0 )
  end;
  let fatal = node.n_cluster = Config.Narrow && narrow_execution_wrong st node in
  classify_prediction st node ~fatal;
  train_predictors st node;
  if fatal then begin
    if st.cfg.Config.replay_recovery then replay st node
    else
      (* the offender is squashed together with everything younger *)
      flush_from st node
  end
  else begin
    let own = cluster_index node.n_cluster in
    if node.n_dest >= 0 then begin
      let v = value_at st node.n_dest in
      v.v_done <- true;
      set_v_avail v own st.now;
      (* ICS'05 register replication: the result is also written to the
         other cluster's file, one cycle later, with no copy uop *)
      if st.cfg.Config.replicated_regfile then begin
        let oth = 1 - own in
        set_v_avail v oth (min (v_avail v oth) (st.now + 2));
        bump st c_regwrite.(oth)
      end;
      (* LR (§3.4): the shared MOB fills both register files. The replica of
         an actually-wide value carries a truncated pattern; a narrow
         consumer that reads it discovers the width violation at its own
         execution and recovers through the ordinary flush path. *)
      if node.n_lr_replicate then begin
        let oth = 1 - own in
        set_v_avail v oth (st.now + 2);
        if v.v_narrow then bump st Counts.lr_replicated;
        bump st c_regwrite.(oth)
      end;
      if st.cfg.Config.replicated_regfile || node.n_lr_replicate then
        publish_later st v;
      wake_consumers st v
    end;
    bump st c_regwrite.(own);
    ( match Opcode.exec_class node.n_op with
    | Opcode.Int_alu | Opcode.Ctrl -> bump st c_alu.(own)
    | Opcode.Int_mul -> bump st Counts.mul_wide
    | Opcode.Mem -> bump st c_agu.(own)
    | Opcode.Fp -> bump st Counts.fpu_wide );
    if node.n_br_mispredicted then
      st.fetch_resume <-
        max st.fetch_resume (st.now + (2 * st.cfg.Config.branch_penalty))
  end

let complete_node st (node : node) =
  node.n_done <- true;
  emit st Event.Writeback node ~a:node.n_disp_tick ~b:node.n_issue_tick;
  if node.n_kind = k_copy then begin
    complete_copy st node;
    free_node st node
  end
  else if node.n_kind = k_slice then complete_slice st node
  else complete_normal st node

let push_due sc s gen =
  let cap = Array.length sc.due_nodes in
  if sc.due_len = cap then begin
    let nodes = Array.make (2 * cap) 0 in
    let gens = Array.make (2 * cap) 0 in
    Array.blit sc.due_nodes 0 nodes 0 cap;
    Array.blit sc.due_gens 0 gens 0 cap;
    sc.due_nodes <- nodes;
    sc.due_gens <- gens
  end;
  sc.due_nodes.(sc.due_len) <- s;
  sc.due_gens.(sc.due_len) <- gen;
  sc.due_len <- sc.due_len + 1

(* Split this wheel slot into due-now (into the due batch) and kept
   future-wrap entries (compacted in place); returns the kept count.
   [nodes] is the node pool: nothing here allocates. *)
let rec compact_slot sc nodes slot now k kept =
  if k >= slot.ev_len then kept
  else begin
    let s = slot.ev_nodes.(k) in
    let node = nodes.(s) in
    let gen = slot.ev_gens.(k) in
    let kept =
      if node.n_gen = gen then begin
        if node.n_complete = now then begin
          push_due sc s gen;
          kept
        end
        else begin
          slot.ev_nodes.(kept) <- s;
          slot.ev_gens.(kept) <- gen;
          kept + 1
        end
      end
      else kept
    in
    compact_slot sc nodes slot now (k + 1) kept
  end

let rec sift_due sc nodes j s id gen =
  if j >= 0 && nodes.(sc.due_nodes.(j)).n_id > id then begin
    sc.due_nodes.(j + 1) <- sc.due_nodes.(j);
    sc.due_gens.(j + 1) <- sc.due_gens.(j);
    sift_due sc nodes (j - 1) s id gen
  end
  else begin
    sc.due_nodes.(j + 1) <- s;
    sc.due_gens.(j + 1) <- gen
  end

let process_completions st =
  let sc = st.sc in
  let nodes = sc.p_nodes in
  let slot = sc.events.(st.now land (wheel_size - 1)) in
  sc.due_len <- 0;
  let kept = compact_slot sc nodes slot st.now 0 0 in
  slot.ev_len <- kept;
  if kept = 0 then begin
    let s = st.now land (wheel_size - 1) in
    let w = s / bits_per_word in
    sc.ev_bits.(w) <-
      sc.ev_bits.(w) land lnot (1 lsl (s land (bits_per_word - 1)))
  end;
  (* oldest first: a fatal flush must squash younger completions sharing
     this tick. Insertion sort on the (tiny) due batch; ids are unique so
     the order is total and deterministic. *)
  for k = 1 to sc.due_len - 1 do
    let s = sc.due_nodes.(k) in
    sift_due sc nodes (k - 1) s nodes.(s).n_id sc.due_gens.(k)
  done;
  for k = 0 to sc.due_len - 1 do
    (* afresh: a completion's flush or replay can grow the node pool *)
    let node = node_at st sc.due_nodes.(k) in
    (* re-check the generation: a flush triggered by an older completion
       this same tick may have squashed-and-resteered this one *)
    if node.n_gen = sc.due_gens.(k) then complete_node st node
  done

(* ----- commit ----- *)

let rec commit_loop st budget =
  if budget <= 0 || st.rob_count = 0 then budget
  else begin
    let head = rob_peek st in
    if head.n_done then begin
      rob_pop st;
      ( if head.n_alloc >= 0 then
          Regfile.release st.regfile
            (if head.n_alloc = 0 then Config.Wide else Config.Narrow) );
      ( if head.n_kind = k_normal then begin
          bump st Counts.committed;
          if head.n_cluster = Config.Narrow then begin
            bump st Counts.steered_narrow;
            let r = head.n_reason in
            (* r_live is the static oracle's dead-width variant of the 888
               rule; it shares the 888 attribution bucket so the sample
               schema stays fixed across schemes *)
            if r = r_888 || r = r_live then bump st Counts.steered_888
            else if r = r_br then bump st Counts.steered_br
            else if r = r_cr then bump st Counts.steered_cr
            else if r = r_ir then bump st Counts.steered_ir
            else bump st Counts.steered_other
          end
          else if
            (* a retained reason on a wide-cluster uop means recovery
               demoted it there after a narrow steering decision *)
            head.n_reason <> r_none
          then bump st Counts.wide_demoted
          else bump st Counts.wide_default
        end
        else if head.n_kind = k_slice then begin
          if head.n_slice_final then begin
            bump st Counts.committed;
            bump st Counts.steered_narrow;
            bump st Counts.split_uops;
            bump st Counts.steered_ir
          end
        end
        else assert false (* copies never enter the ROB *) );
      bump st Counts.rob_committed;
      emit st Event.Commit head ~a:0 ~b:0;
      free_node st head;
      commit_loop st (budget - 1)
    end
    else budget
  end

(* Returns the number of commit slots used this round (for accounting). *)
let commit st =
  let width = st.cfg.Config.commit_width in
  width - commit_loop st width

(* ----- event horizon -----

   A tick is quiet when nothing completed, committed, dispatched or left
   an issue queue in it. When the last wide round and every tick since
   were quiet, the ticks that follow repeat it until the horizon, the
   first tick at which anything can change: the stages see the same
   queues, ROB and values, so each round again issues, commits and
   dispatches nothing, and each round's cycle accounting attributes its
   slots alike. Only the backlog EWMAs, the counts and a stalled
   dispatch's retries move, and [replay] steps just those. *)

(* The horizon after the quiet tick [now], [never] when no event is
   left: the first of
   - the frontend's next round, when it did not run in the last wide
     round ([fetch_resume]: a branch or trace-cache refill); it retries
     a stalled dispatch in every wide round, which [replay] follows;
   - the end of a width flush's drain ([wflush_until]), which the
     accounting of an empty stage reads;
   - the next issue round after a value published to the other cluster
     at [now + 2] becomes readable, when the last wide round did not see
     it; the wakeup ring holds exactly those values, so this
     covers its next slot too;
   - the next occupied event-wheel slot.
   A stall end or a value the last wide round already saw changes
   nothing ([unseen]). *)
let unseen st t h =
  if t > st.now land lnot 1 then min h (max (st.now + 1) t) else h

let horizon st =
  let h = unseen st st.fetch_resume never in
  let h = if st.wflush_until > st.now then min h st.wflush_until else h in
  let h = unseen st st.avail_soon h in
  next_event st.sc (st.now + 1) h

(* the frontend retries a stalled dispatch in every wide round *)
let retrying st = st.fetch_idx < st.trace_len && st.fetch_resume <= st.now

(* Replay the quiet ticks from [now + 1] up to [h], leaving [now] on the
   last one replayed. Each issue round decays its cluster's backlog EWMA
   as an idle round does (the multiply itself, as [0.9 ** k] is not the
   same float). A wide round whose frontend retries the stalled uop
   repeats its trace-cache and width-predictor lookups; since the EWMA
   is part of what the steering policy reads, replay stops before the
   first retry whose verdict would differ from the stalled one. The
   counts are booked at once: with nothing moving, k rounds are k times
   one round, the accounting's split included. *)
let replay st h =
  let cfg = st.cfg in
  let helper = cfg.Config.scheme.Config.helper in
  let fast = helper && cfg.Config.helper_fast_clock in
  let retry = retrying st in
  let lookup = retry && cfg.Config.frontend_model = Config.Fe_trace_cache in
  let ewma = st.backlog_ewma in
  let first = st.now + 1 in
  let t = ref first in
  while
    !t < h
    && not
         (!t land 1 = 0 && retry
          && decision_code (decision st st.fetch_idx) <> st.fe_code)
  do
    if !t land 1 = 0 then begin
      if lookup then begin
        let pc = Uop_soa.pc st.soa st.fetch_idx in
        let hit = Trace_cache.lookup (Lazy.force st.tcache) pc in
        assert hit
      end;
      ewma.(0) <- ewma_step ewma.(0) 0;
      if helper then ewma.(1) <- ewma_step ewma.(1) 0
    end
    else if fast then ewma.(1) <- ewma_step ewma.(1) 0;
    incr t
  done;
  let ticks = !t - first in
  if ticks > 0 then begin
    let evens = ((!t + 1) / 2) - ((first + 1) / 2) in
    let narrow_rounds = if fast then ticks else if helper then evens else 0 in
    bump_by st Counts.tick ticks;
    bump_by st Counts.cycle_wide evens;
    bump_by st Counts.cycle_narrow narrow_rounds;
    if retry then bump_by st Counts.wpred_lookup evens;
    if st.accounting then begin
      account_commit_rounds st ~rounds:evens ~committed:0;
      account_issue_rounds st Config.Wide ~rounds:evens ~issued:0;
      if helper then
        account_issue_rounds st Config.Narrow ~rounds:narrow_rounds ~issued:0
    end;
    st.now <- !t - 1
  end

type stuck_operand = { done_ : bool; avail_wide : int; avail_narrow : int }

type stuck_head = {
  trace_idx : int;
  op : Opcode.t;
  cluster : Config.cluster;
  operands : stuck_operand list;
}

type deadlock = {
  tick : int;
  head : stuck_head option;
  rob : int;
  iq_wide : int;
  iq_narrow : int;
}

exception Deadlock of deadlock

let deadlock_message d =
  let at t = if t = never then "never" else string_of_int t in
  let operand o =
    Printf.sprintf "%s, wide at %s, narrow at %s"
      (if o.done_ then "done" else "not done")
      (at o.avail_wide) (at o.avail_narrow)
  in
  let head =
    match d.head with
    | None -> "the ROB is empty"
    | Some h ->
      Printf.sprintf "ROB head trace index %d (%s, %s cluster; operands: %s)"
        h.trace_idx (Opcode.to_string h.op)
        (Config.cluster_to_string h.cluster)
        ( if h.operands = [] then "none"
          else String.concat "; " (List.map operand h.operands) )
  in
  Printf.sprintf
    "Pipeline.run: deadlock at tick %d, no event left: %s; ROB %d, issue \
     queues wide %d narrow %d"
    d.tick head d.rob d.iq_wide d.iq_narrow

let () =
  Printexc.register_printer (function
    | Deadlock d -> Some (deadlock_message d)
    | _ -> None)

let deadlock st =
  let head =
    if st.rob_count = 0 then None
    else begin
      let n = rob_peek st in
      Some
        { trace_idx = n.n_trace_idx; op = n.n_op; cluster = n.n_cluster;
          operands =
            List.init n.n_ndeps (fun k ->
                let v = value_at st n.n_dep_v.(k) in
                { done_ = v.v_done; avail_wide = v.v_avail0;
                  avail_narrow = v.v_avail1 }) }
    end
  in
  Deadlock
    { tick = st.now; head; rob = st.rob_count; iq_wide = st.iq.(0).iq_len;
      iq_narrow = st.iq.(1).iq_len }

let ewma_settled st =
  ewma_step st.backlog_ewma.(0) 0 = st.backlog_ewma.(0)
  && ewma_step st.backlog_ewma.(1) 0 = st.backlog_ewma.(1)

(* After a quiet tick whose last wide round was quiet too: replay up to
   the horizon, which a sample boundary also bounds (that tick runs for
   real), or raise [Deadlock] when nothing can ever change. *)
let jump st ~sample_every =
  let h = horizon st in
  let h =
    if h < never then h
    else if retrying st && not (ewma_settled st) then
      (* no event, but the decaying EWMA may still change the stalled
         uop's verdict: go on until it settles *)
      st.now + wheel_size
    else raise (deadlock st)
  in
  let h =
    if sample_every > 0 then
      min h (((st.now / sample_every) + 1) * sample_every)
    else h
  in
  if st.skip && h > st.now + 1 then replay st h

(* ----- main loop ----- *)

(* The ambient registry's per-run series, recorded where every run ends,
   whoever drove it; one atomic load when observability is off. The
   NREADY histograms take one observation per sampled interval, so a
   scrape carries the distribution of the §3.7 imbalance signal, not
   just its total. The two work counters count what the issue stage and
   the wakeups did, which code placement cannot move. *)
let observe_run st =
  Registry.with_ambient (fun r ->
      Registry.inc
        (Registry.counter r ~help:"Completed pipeline simulations"
           "hc_sim_runs_total");
      Registry.add
        (Registry.counter r ~help:"Uops retired across all simulations"
           "hc_uops_retired_total")
        st.counts.(Counts.committed);
      Registry.observe
        (Registry.histogram r ~help:"Ticks to completion per simulation"
           "hc_sim_run_ticks")
        st.counts.(Counts.tick);
      Registry.add
        (Registry.counter r
           ~help:"Ready-list entries the issue stage examined"
           "hc_issue_visits_total")
        st.issue_visits;
      Registry.add
        (Registry.counter r
           ~help:"Waiting consumers a wakeup reached"
           "hc_wakeup_touches_total")
        st.wakeup_touches;
      match st.sink with
      | Some sink when Sink.sample_count sink > 0 ->
        let w2n =
          Registry.histogram r
            ~help:"Per-interval NREADY wide-to-narrow imbalance samples"
            "hc_nready_w2n_per_interval"
        and n2w =
          Registry.histogram r
            ~help:"Per-interval NREADY narrow-to-wide imbalance samples"
            "hc_nready_n2w_per_interval"
        in
        List.iter
          (fun (s : Sample.t) ->
            Registry.observe w2n s.Sample.d.(Counts.nready_w2n);
            Registry.observe n2w s.Sample.d.(Counts.nready_n2w))
          (Sink.samples sink)
      | _ -> ())

let finished st = st.fetch_idx >= st.trace_len && st.rob_count = 0

let run_gen ~check ?(poison = false) ~skip ?(drop_idx = -2)
    ?(tiny_pools = false) ?sink ~accounting ~cfg ~decide ~scheme_name trace =
  let st =
    create ?sink ~accounting ~check ~poison ~skip ~drop_idx ~tiny_pools
      cfg decide trace
  in
  let helper = cfg.Config.scheme.Config.helper in
  let sample_every =
    match sink with Some s -> Sink.interval s | None -> 0
  in
  while not (finished st) do
    let fetched = st.fetch_idx in
    wake_due st;
    process_completions st;
    let quiet = st.sc.due_len = 0 in
    let even = st.now mod 2 = 0 in
    let quiet =
      if even then begin
        let commit_used = commit st in
        if st.accounting then
          account_commit_rounds st ~rounds:1 ~committed:commit_used;
        st.stall_src <- Sr_none;
        frontend st;
        issue_cluster st Config.Wide;
        let issued_w = st.iss_issued and capable_w = st.iss_capable in
        let quiet =
          quiet && commit_used = 0 && st.fetch_idx = fetched
          && st.iss_removed = 0
        in
        if st.accounting then
          account_issue_rounds st Config.Wide ~rounds:1 ~issued:issued_w;
        if helper then begin
          issue_cluster st Config.Narrow;
          let issued_n = st.iss_issued and leftover_n = st.iss_ready in
          if st.accounting then
            account_issue_rounds st Config.Narrow ~rounds:1 ~issued:issued_n;
          (* NREADY (§3.7): ready uops stalled here while the other backend
             had idle slots this cycle; for the helper, only those its
             integer-only 8-bit units could host. The narrow round changes
             no wide operand's readiness, so the wide walk's count stands. *)
          let spare_n = cfg.Config.issue_width - issued_n in
          let spare_w = cfg.Config.issue_width - issued_w in
          if spare_n > 0 && capable_w > 0 then
            bump_by st Counts.nready_w2n (min capable_w spare_n);
          if spare_w > 0 && leftover_n > 0 then
            bump_by st Counts.nready_n2w (min leftover_n spare_w);
          quiet && st.iss_removed = 0
        end
        else quiet
      end
      else if helper && cfg.Config.helper_fast_clock then begin
        issue_cluster st Config.Narrow;
        if st.accounting then
          account_issue_rounds st Config.Narrow ~rounds:1 ~issued:st.iss_issued;
        quiet && st.iss_removed = 0
      end
      else quiet
    in
    bump st Counts.tick;
    if even then bump st Counts.cycle_wide;
    if helper && (even || cfg.Config.helper_fast_clock) then
      bump st Counts.cycle_narrow;
    if sample_every > 0 && st.now > 0 && st.now mod sample_every = 0 then begin
      match st.sink with
      | Some sink -> take_sample st sink
      | None -> ()
    end;
    if not quiet then st.quiet_since <- st.now + 1
    else if st.quiet_since <= st.now land lnot 1 then jump st ~sample_every;
    st.now <- st.now + 1
  done;
  (* flush the tail interval so the series' column sums equal the final
     metrics even when the run length is not a multiple of the interval *)
  if sample_every > 0 then
    ( match st.sink with
    | Some sink -> take_sample st sink
    | None -> () );
  observe_run st;
  let stall =
    if accounting then
      Some
        { Accounting.issue_width = cfg.Config.issue_width;
          commit_width = cfg.Config.commit_width }
    else None
  in
  Metrics.of_counts ~name:trace.Trace.name ~scheme_name ?stall st.counts

let run ?sink ?(accounting = false) ~cfg ~decide ~scheme_name trace =
  run_gen ~check:false ~skip:true ?sink ~accounting ~cfg ~decide
    ~scheme_name trace

module For_testing = struct
  let run_ready_checked ?sink ?(accounting = false) ~cfg ~decide ~scheme_name
      trace =
    run_gen ~check:true ~skip:true ?sink ~accounting ~cfg ~decide ~scheme_name
      trace

  let run_unskipped ?sink ?(accounting = false) ~cfg ~decide ~scheme_name
      trace =
    run_gen ~check:false ~skip:false ?sink ~accounting ~cfg ~decide
      ~scheme_name trace

  let run_dropping_completion ~trace_idx ~cfg ~decide ~scheme_name trace =
    run_gen ~check:false ~skip:true ~drop_idx:trace_idx ~accounting:false
      ~cfg ~decide ~scheme_name trace

  let run_poisoned ?sink ?(accounting = false) ~cfg ~decide ~scheme_name trace
      =
    run_gen ~check:false ~poison:true ~skip:true ?sink ~accounting ~cfg
      ~decide ~scheme_name trace

  let run_growing_pools ?sink ?(accounting = false) ~cfg ~decide ~scheme_name
      trace =
    run_gen ~check:false ~skip:true ~tiny_pools:true ?sink ~accounting
      ~cfg ~decide ~scheme_name trace

  let arena_high_water () =
    let sc = Domain.DLS.get scratch_key in
    (sc.p_ncur, sc.p_vcur, sc.e_len)
end
