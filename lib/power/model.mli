(** Wattch-like activity-based power model (§3.1, §3.7).

    The paper uses an in-house wattch-style simulator "modified to take
    into account the helper cluster power, including the 8-bit datapath and
    the clock network as well as the width predictors". This model does the
    same thing at the same abstraction level: every activity counter the
    pipeline records (issues, register file accesses, functional-unit
    operations, cache accesses, copies, predictor traffic, clock ticks) is
    multiplied by a per-event energy. Event energies scale with datapath
    width — the 8-bit backend's register file and ALU cost roughly a
    quarter of their 32-bit counterparts, which is the paper's
    area/complexity scaling argument (§2.1).

    Absolute joules are arbitrary (units are normalized "energy units");
    only ratios are meaningful, exactly as in the paper's energy-delay²
    comparison. *)

type report = {
  total : float;  (** total energy in normalized units *)
  breakdown : (string * float) list;  (** per-structure, descending *)
}

val estimate : ?narrow_bits:int -> Hc_sim.Metrics.t -> report
(** Energy of one finished run, from its activity counters. [narrow_bits]
    (default 8) scales the helper-cluster structure energies linearly for
    wider-helper configurations. *)

val energy_delay2 : ?narrow_bits:int -> Hc_sim.Metrics.t -> float
(** E·D² for one run (delay in wide-cluster cycles). *)

val ed2_improvement_pct :
  ?narrow_bits:int -> baseline:Hc_sim.Metrics.t -> Hc_sim.Metrics.t -> float
(** §3.7: how much more energy-delay² efficient a run is than the
    baseline, in percent (positive = better than baseline). *)

val event_energy : Hc_obs.Counts.id -> float
(** The per-event energy assigned to a counter (0. for counters the
    model does not price). Exposed for tests and ablations. *)
