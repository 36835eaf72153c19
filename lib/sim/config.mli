(** Machine configuration (paper Table 1) and steering-scheme selection.

    All latencies are expressed in {e wide-cluster (slow) cycles}; the
    simulator's global clock runs in helper-cluster fast ticks, two per
    slow cycle (§2.2: the 8-bit backend is clocked 2× faster and the two
    clocks stay synchronized). *)

type cluster = Wide | Narrow

val cluster_to_string : cluster -> string
val pp_cluster : Format.formatter -> cluster -> unit

type ir_mode =
  | Ir_off
  | Ir_all  (** §3.7: split any eligible wide uop under w→n imbalance *)
  | Ir_no_dest
      (** §3.7 fine tuning: split only uops without a destination register,
          trading imbalance for far fewer prefetch copies *)

type scheme = {
  helper : bool;  (** narrow cluster present at all *)
  s888 : bool;  (** §3.2 all-narrow steering *)
  br : bool;  (** §3.3 flag-dependent branch steering *)
  lr : bool;  (** §3.4 load replication *)
  cr : bool;  (** §3.5 carry width prediction *)
  cp : bool;  (** §3.6 copy prefetching *)
  ir : ir_mode;  (** §3.7 instruction splitting *)
}

val monolithic : scheme
(** The baseline: no helper cluster. *)

val scheme_stack : (string * scheme) list
(** The paper's incremental evaluation order: ["8_8_8"], ["+BR"], ["+LR"],
    ["+CR"], ["+CP"], ["+IR"], ["+IR(nodest)"] — each including all
    previous techniques, as in §3. *)

val find_scheme : string -> scheme
(** Look up by the names of {!scheme_stack} or ["baseline"].
    @raise Not_found otherwise. *)

type memory_model =
  | Mem_trace_flags
      (** per-uop hit/miss ground truth carried in the trace: identical
          memory behaviour under every configuration (the default) *)
  | Mem_cache_sim
      (** structural DL0/UL1 simulation ({!Cache}) over the trace's
          effective addresses *)

type branch_model =
  | Br_trace_flags  (** per-uop misprediction ground truth (the default) *)
  | Br_gshare  (** a gshare predictor ({!Branch_predictor}) over directions *)

type frontend_model =
  | Fe_ideal  (** uop supply never misses (the default) *)
  | Fe_trace_cache
      (** Table 1's 32K-uop trace cache ({!Trace_cache}); a miss stalls
          decode for the UL1 fill time *)

type t = {
  decode_width : int;  (** frontend rename/steer bandwidth per slow cycle *)
  commit_width : int;  (** Table 1: 6 *)
  rob_size : int;
  iq_size : int;  (** Table 1: 32-entry scheduler per backend *)
  issue_width : int;  (** Table 1: 3 per backend *)
  mob_size : int;
  dl0_latency : int;  (** Table 1: 3 cycles *)
  ul1_latency : int;  (** Table 1: 13 cycles *)
  mem_latency : int;  (** Table 1: 450 cycles *)
  branch_penalty : int;  (** frontend redirect after a mispredicted branch *)
  width_flush_penalty : int;  (** squash-and-resteer after a fatal width miss *)
  copy_latency : int;  (** inter-cluster hop of a copy uop *)
  wpred_entries : int;  (** width predictor size (§3.2: 256) *)
  conf_bits : int;  (** confidence estimator width (§3.2: 2) *)
  confidence_gate : bool;  (** steer only on high-confidence predictions *)
  narrow_bits : int;
      (** helper-cluster datapath width in bits (8 in the paper; the
          conclusion proposes wider variants as future work - 16 makes a
          natural ablation). The width detectors, the 8-8-8/8-32-32 shape
          tests and the carry check all use this threshold. *)
  memory_model : memory_model;
  branch_model : branch_model;
  frontend_model : frontend_model;
  wide_regs : int;  (** wide-cluster physical register file size *)
  narrow_regs : int;  (** helper-cluster physical register file size *)
  helper_fast_clock : bool;
      (** the 2x helper clock of section 2.2; disabling it leaves an 8-bit
          backend at the wide cluster's frequency - the ablation that
          separates the clock-rate benefit from the issue-bandwidth
          benefit *)
  replicated_regfile : bool;
      (** the ICS'05 comparator's register organization: every result is
          written to both clusters' files, so no copy uops are ever
          needed (at the cost of replicated write ports) *)
  replay_recovery : bool;
      (** recover from a fatal width misprediction by replaying just the
          offending uop in the wide cluster (ICS'05) instead of squashing
          the narrow backend (this paper's flushing scheme) *)
  scheme : scheme;
}

val default : t
(** Table-1 machine with the full technique stack up to IR. *)

val baseline : t
(** Same machine, helper cluster disabled — the monolithic reference. *)

val ics05 : t
(** The related-work comparator of §4 (González et al., ICS 2005): a
    20-bit same-clock narrow cluster with a replicated register file,
    ungated history-based width prediction and replay-based recovery.
    Implemented so the two asymmetric-clustering philosophies can be
    benchmarked head to head. *)

val with_scheme : t -> scheme -> t

val validate : t -> (unit, string) result
