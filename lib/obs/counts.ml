(* The simulator's counter table: every dynamic count a run produces,
   declared once. The pipeline keeps all of them in one [int array]
   indexed by the ids below; the metrics JSON, the interval series, the
   artifact-cache decoder and the power model all walk this table
   instead of naming the counts one by one.

   Each [declare] line is one entry: its id is its position, [key] is the
   name it is serialized under (JSON key, CSV column), [group] says
   where it appears in the metrics JSON, and [presence] whether it is
   always written or only once nonzero. Adding a counter is one line
   here (plus a [Metrics] field only if it is a headline result).

   [Result] entries are the top-level keys of the metrics JSON and are
   declared in that key order. [Activity] entries form its "counters"
   object and are declared sorted by key, which is that object's key
   order (a test checks it). [Stall] entries are the cycle-accounting
   slots, written as the metrics JSON's "stall" object and the stall
   CSV's columns only when the run accounted cycles. *)

type id = int
type group = Result | Activity | Stall
type presence = Always | Nonzero

type entry = { key : string; group : group; presence : presence }

(* Declaration order is id order; only the declarations below call this. *)
let declared = ref []

let declare key group presence =
  let id = List.length !declared in
  declared := { key; group; presence } :: !declared;
  id

(* ----- results: what the paper's figures are ratios of ----- *)

(* trace uops committed (a split uop counts once, at its final slice) *)
let committed = declare "committed" Result Always

(* inter-cluster copy uops generated (demand + prefetch) *)
let copies = declare "copies" Result Always

(* committed uops executed in the helper cluster *)
let steered_narrow = declare "steered_narrow" Result Always

(* committed uops that were IR-split *)
let split_uops = declare "split_uops" Result Always

(* Steering attribution: which rule earned each committed helper-cluster
   uop. They sum to [steered_narrow] (see [attrib_consistent]). *)

(* the all-narrow 8_8_8 rule (§3.2); the static oracles' proofs too *)
let steered_888 = declare "steered_888" Result Always

(* flag-dependent branches (BR, §3.3) *)
let steered_br = declare "steered_br" Result Always

(* carry-local one-wide-source uops (CR, §3.5) *)
let steered_cr = declare "steered_cr" Result Always

(* IR-split uops (§3.7); always equals [split_uops] *)
let steered_ir = declare "steered_ir" Result Always

(* steered narrow without a recorded policy reason (custom [decide]
   functions only) *)
let steered_other = declare "steered_other" Result Always

(* committed wide-cluster uops that were steered wide at rename *)
let wide_default = declare "wide_default" Result Always

(* committed wide-cluster uops first steered narrow and moved wide by
   width-violation recovery (flush or replay): the commit cost of fatal
   width mispredictions *)
let wide_demoted = declare "wide_demoted" Result Always

(* width predictions matching the actual width *)
let wpred_correct = declare "wpred_correct" Result Always

(* mispredictions that forced a squash-and-resteer *)
let wpred_fatal = declare "wpred_fatal" Result Always

(* missed opportunities: mispredicted but safe *)
let wpred_nonfatal = declare "wpred_nonfatal" Result Always

(* copies injected by copy prefetching (CP, §3.6) *)
let prefetch_copies = declare "prefetch_copies" Result Always

(* CP copies that a consumer actually used *)
let prefetch_useful = declare "prefetch_useful" Result Always

(* NREADY samples (§3.7): ready in wide while narrow had idle slots *)
let nready_w2n = declare "nready_w2n" Result Always

(* NREADY samples: ready in narrow while wide had idle slots *)
let nready_n2w = declare "nready_n2w" Result Always

(* ----- activity: events the power model prices, sorted by key ----- *)

let agu_narrow = declare "agu_narrow" Activity Nonzero
let agu_wide = declare "agu_wide" Activity Nonzero
let alu_narrow = declare "alu_narrow" Activity Nonzero
let alu_wide = declare "alu_wide" Activity Nonzero

(* every ROB retirement, including the non-final slices of an IR-split
   uop; unlike the top-level [committed], which counts trace uops *)
let rob_committed = declare "committed" Activity Always

(* copies that reached their target cluster *)
let copy_completed = declare "copy_completed" Activity Nonzero
let copy_dispatched = declare "copy_dispatched" Activity Nonzero

(* helper-cluster clock ticks (one per fast tick when it runs 2x) *)
let cycle_narrow = declare "cycle_narrow" Activity Always

(* wide-cluster (slow) cycles *)
let cycle_wide = declare "cycle_wide" Activity Always
let dispatch_narrow = declare "dispatch_narrow" Activity Nonzero
let dispatch_wide = declare "dispatch_wide" Activity Nonzero
let fpu_wide = declare "fpu_wide" Activity Nonzero

(* issue slots used per cluster; [Metrics.issued_total] is their sum *)
let issue_narrow = declare "issue_narrow" Activity Always
let issue_wide = declare "issue_wide" Activity Always

(* loads whose narrow result LR wrote into the other cluster too *)
let lr_replicated = declare "lr_replicated" Activity Nonzero
let mem_dl0 = declare "mem_dl0" Activity Nonzero
let mem_main = declare "mem_main" Activity Nonzero
let mem_ul1 = declare "mem_ul1" Activity Nonzero
let mul_wide = declare "mul_wide" Activity Nonzero
let regread_narrow = declare "regread_narrow" Activity Always
let regread_wide = declare "regread_wide" Activity Always
let regwrite_narrow = declare "regwrite_narrow" Activity Nonzero
let regwrite_wide = declare "regwrite_wide" Activity Nonzero

(* width violations recovered by selective replay *)
let replay = declare "replay" Activity Nonzero
let split_dispatched = declare "split_dispatched" Activity Nonzero
let tc_miss = declare "tc_miss" Activity Nonzero

(* fast ticks elapsed (2 per wide cycle); [Metrics.ticks] reads it *)
let tick = declare "tick" Activity Always

(* width violations recovered by squash-and-refetch *)
let width_flush = declare "width_flush" Activity Nonzero
let wpred_lookup = declare "wpred_lookup" Activity Nonzero
let wpred_update = declare "wpred_update" Activity Nonzero

(* ----- stall: top-down cycle accounting (Hc_sim.Accounting) -----

   Per lane (wide issue, narrow issue, commit): how many of the stage's
   slots each category took, then the lane's round count, so the lane's
   category entries sum to its width times its rounds. Keyed
   [<lane>_<column>] and declared lane-major in [stall_columns] order,
   which is the stall CSV's column order; [stall ~lane k] is the id of
   column [k] of [lane]. Counted only when the run accounts cycles. *)

let stall_lanes = [ "wide"; "narrow"; "commit" ]

let stall_columns =
  [ "issued"; "frontend"; "dispatch"; "wait_operands"; "wait_copy"; "memory";
    "width_recovery"; "drained"; "idle"; "rounds" ]

let stall_first = List.length !declared

(* a literal, so that [stall] folds a constant lane and column *)
let stall_stride = 10
let () = assert (List.length stall_columns = stall_stride)

let () =
  List.iter
    (fun lane ->
      List.iter
        (fun col -> ignore (declare (lane ^ "_" ^ col) Stall Always))
        stall_columns)
    stall_lanes

let[@inline] stall ~lane k = stall_first + (lane * stall_stride) + k

(* ----- the table and the vector operations it drives ----- *)

let table = Array.of_list (List.rev !declared)
let n = Array.length table
let key id = table.(id).key
let ids group = List.filter (fun id -> table.(id).group = group) (List.init n Fun.id)
let results = ids Result
let activity = ids Activity
let stall_ids = ids Stall

let find group k = List.find_opt (fun id -> String.equal (key id) k) (ids group)

(* whether [id] is serialized for the count vector [v] *)
let present v id = table.(id).presence = Always || v.(id) <> 0

let make () = Array.make n 0
let sub a b = Array.init n (fun i -> a.(i) - b.(i))
let add a b = Array.init n (fun i -> a.(i) + b.(i))

(* The attribution partition: the narrow attribution columns sum to
   [steered_narrow], [steered_ir = split_uops], and the wide columns sum
   to [committed - steered_narrow]. Holds for a whole run and, by
   linearity, for every interval delta. *)
let attrib_consistent v =
  v.(steered_888) + v.(steered_br) + v.(steered_cr) + v.(steered_ir)
  + v.(steered_other)
  = v.(steered_narrow)
  && v.(steered_ir) = v.(split_uops)
  && v.(wide_default) + v.(wide_demoted) = v.(committed) - v.(steered_narrow)
