module Uop_soa = Hc_isa.Uop_soa

(* Rename-time source knowledge, packed into an immediate int so the
   per-uop steering path allocates nothing: bit 0 = believed narrow,
   bit 1 = belief is actual (producer done) rather than predicted,
   bits 2-3 = producing cluster code (0 = architectural / immediate,
   1 = wide, 2 = narrow). *)
type src_info = int

let cluster_code_none = 0
let cluster_code_wide = 1
let cluster_code_narrow = 2

let src_info_bits ~narrow ~known ~cluster_code : src_info =
  (if narrow then 1 else 0) lor (if known then 2 else 0) lor (cluster_code lsl 2)

let src_info ~narrow ~known ~cluster =
  src_info_bits ~narrow ~known
    ~cluster_code:
      (match cluster with
      | None -> cluster_code_none
      | Some Config.Wide -> cluster_code_wide
      | Some Config.Narrow -> cluster_code_narrow)

let si_narrow (si : src_info) = si land 1 <> 0

let si_known (si : src_info) = si land 2 <> 0

let si_cluster (si : src_info) =
  match si lsr 2 with
  | 1 -> Some Config.Wide
  | 2 -> Some Config.Narrow
  | _ -> None

(* The view is the trace's columns themselves; only the interface makes
   it abstract. *)
type uops = Uop_soa.t

let uops_of_soa soa = soa

(* Occupancy-style signals are exposed as threshold tests instead of
   float-returning closures: a [float] coming back out of a closure call
   is boxed per call, while a [bool] is immediate. The float literals at
   the policy call sites are static data, so a comparison costs nothing. *)
type ctx = {
  cfg : Config.t;
  preds : Hc_predictors.Bundle.t;
  uops : uops;
  source_info : int -> int -> src_info;
  flags_in_narrow : unit -> bool;
  occupancy_lt : Config.cluster -> float -> bool;
      (* issue-queue occupancy (len / iq_size) strictly below the bound *)
  ready_backlog : Config.cluster -> int;
  backlog_ewma_gt : Config.cluster -> float -> bool;
      (* smoothed ready-backlog strictly above the bound *)
  rob_occupancy_lt : float -> bool;
}

(* The columns are read unchecked, so the index a policy passes is
   checked against the view first. *)
let index ctx i =
  if i < 0 || i >= Uop_soa.length ctx.uops then
    invalid_arg "Steer: trace index out of range";
  i

let id ctx i = Uop_soa.id ctx.uops (index ctx i)
let pc ctx i = Uop_soa.pc ctx.uops (index ctx i)
let op ctx i = Uop_soa.op ctx.uops (index ctx i)
let nsrcs ctx i = Uop_soa.nsrcs ctx.uops (index ctx i)
let has_dest ctx i = Uop_soa.has_dest ctx.uops (index ctx i)
let writes_flags ctx i = Hc_isa.Opcode.writes_flags (op ctx i)
let reads_flags ctx i = Hc_isa.Opcode.reads_flags (op ctx i)

type reason = R888 | Rbr | Rcr | Rir | Rlive

type decision =
  | Steer of Config.cluster
  | Steer_narrow of reason
  | Split

(* Preallocated decisions: policies return these so a steering verdict
   never allocates. [Split] is a constant constructor and needs no
   sharing. *)
let steer_wide = Steer Config.Wide
let steer_narrow_cluster = Steer Config.Narrow
let steer_888 = Steer_narrow R888
let steer_br = Steer_narrow Rbr
let steer_cr = Steer_narrow Rcr
let steer_ir = Steer_narrow Rir
let steer_live = Steer_narrow Rlive

let steer_narrow_of = function
  | R888 -> steer_888
  | Rbr -> steer_br
  | Rcr -> steer_cr
  | Rir -> steer_ir
  | Rlive -> steer_live

type decide = ctx -> int -> decision

let reason_to_string = function
  | R888 -> "888"
  | Rbr -> "br"
  | Rcr -> "cr"
  | Rir -> "ir"
  | Rlive -> "live"

let pp_decision ppf = function
  | Steer c -> Format.fprintf ppf "steer:%s" (Config.cluster_to_string c)
  | Steer_narrow r -> Format.fprintf ppf "steer:narrow(%s)" (reason_to_string r)
  | Split -> Format.pp_print_string ppf "split"
