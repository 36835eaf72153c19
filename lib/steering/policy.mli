(** The paper's data-width aware steering policies (§3).

    [decide] implements the full technique stack; which techniques are
    active comes from the scheme flags inside the machine configuration
    carried by the context. The rules, in priority order:

    + floating-point, multiply and divide uops always go wide — the helper
      cluster has 8-bit integer units only (§2.1);
    + BR (§3.3): a conditional branch whose flags producer was steered to
      the helper cluster follows it there, avoiding a flags copy;
    + 8-8-8 (§3.2): if every source is believed narrow (actual width for
      immediates and written-back producers, prediction otherwise) and the
      result is predicted narrow with high confidence, steer narrow;
    + CR (§3.5): carry-eligible two-source uops shaped 8-32-32 whose carry
      predictor says (with confidence) that the carry will not leave the
      low byte steer narrow; loads additionally need a narrow-predicted
      loaded value, since the helper register file cannot hold a wide one;
    + IR (§3.7): when the wide backend's issue-queue occupancy exceeds the
      helper's by the configured threshold, otherwise-wide splittable uops
      are split into four 8-bit slices ([Ir_no_dest] restricts this to
      uops without a destination register);
    + everything else goes wide.

    Stores always steer wide (the MOB lives there); loads may steer narrow
    through 8-8-8 or CR. *)

val decide : Hc_sim.Steer.decide
(** The policy used by every experiment; reads the scheme from
    [ctx.cfg.scheme]. *)

val static_oracle :
  ?reason:Hc_sim.Steer.reason ->
  provably_narrow:(int -> bool) ->
  Hc_sim.Steer.decide
(** The static oracle family: steer to the helper cluster exactly the
    uops whose id [provably_narrow] accepts (a static width-inference
    proof from [Hc_analysis.Static]; ids outside the analyzed window
    must answer [false], so they steer wide), everything else wide. Branches and stores stay
    wide, like the dynamic 8-8-8 rule's reachable set without BR/IR. When
    the predicate is sound the run has zero width-violation recoveries by
    construction, so its steered share is the headroom bound a perfect
    zero-recovery predictor could reach. [reason] (default [R888], for
    the forward [static_888] oracle) tags the steering decision; the
    [static_bidir] oracle passes [Rlive] so the pipeline treats the
    dead-width proof as proof-carried instead of ground-truth checking
    it. The predicate is passed in rather than imported so [Hc_steering]
    does not depend on the analysis library; [Hc_core.Runs] wires the two
    together. *)

val stack : (string * Hc_sim.Config.scheme) list
(** [Config.scheme_stack] re-exported with the baseline prepended: the
    run order of the paper's evaluation. *)
