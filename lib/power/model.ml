module Metrics = Hc_sim.Metrics
module Counts = Hc_obs.Counts

(* Per-event energies in normalized units. Width scaling: the 8-bit
   backend's array structures (register file, ALU, AGU, scheduler CAM)
   cost roughly a quarter of the 32-bit ones — the paper's linear-in-width
   area argument (§2.1) — while absolute-time structures (caches, main
   memory) are shared and identical. *)
let table =
  [
    (Counts.dispatch_wide, 1.0);
    (Counts.dispatch_narrow, 1.0);  (* rename/steer work is frontend-side *)
    (Counts.split_dispatched, 1.6);  (* cracking into four lanes costs decode *)
    (Counts.issue_wide, 1.6);
    (Counts.issue_narrow, 0.7);
    (Counts.regread_wide, 1.0);
    (Counts.regread_narrow, 0.25);
    (Counts.regwrite_wide, 1.2);
    (Counts.regwrite_narrow, 0.3);
    (Counts.alu_wide, 4.0);
    (Counts.alu_narrow, 1.0);
    (Counts.agu_wide, 2.0);
    (Counts.agu_narrow, 0.5);
    (Counts.mul_wide, 12.0);
    (Counts.fpu_wide, 16.0);
    (Counts.mem_dl0, 8.0);
    (Counts.mem_ul1, 30.0);
    (Counts.mem_main, 180.0);
    (Counts.copy_dispatched, 0.5);
    (Counts.copy_completed, 1.5);  (* inter-cluster wire hop *)
    (Counts.lr_replicated, 0.3);  (* the extra 8-bit register-file write *)
    (Counts.wpred_lookup, 0.12);
    (Counts.wpred_update, 0.12);
    (Counts.width_flush, 40.0);  (* squash, rollback and refetch churn *)
    (Counts.cycle_wide, 6.0);  (* wide-cluster clock tree, per slow cycle *)
    (Counts.cycle_narrow, 1.1);  (* 8-bit cluster clock tree, per fast tick *)
    (Counts.rob_committed, 0.4);
  ]

let event_energy id =
  match List.assoc_opt id table with Some e -> e | None -> 0.

type report = {
  total : float;
  breakdown : (string * float) list;
}

let is_narrow_structure name =
  let suffix = "_narrow" in
  let nl = String.length name and sl = String.length suffix in
  nl >= sl && String.sub name (nl - sl) sl = suffix

let estimate ?(narrow_bits = 8) (m : Metrics.t) =
  (* array structures scale roughly linearly with datapath width (Â§2.1);
     the table prices an 8-bit helper, so a wider one costs
     proportionally more *)
  let width_scale = float_of_int narrow_bits /. 8. in
  let breakdown =
    List.filter_map
      (fun (id, unit_energy) ->
        let name = Counts.key id and n = m.Metrics.counts.(id) in
        let unit_energy =
          if is_narrow_structure name then unit_energy *. width_scale
          else unit_energy
        in
        if n = 0 then None else Some (name, float_of_int n *. unit_energy))
      table
  in
  let breakdown =
    List.sort (fun (_, a) (_, b) -> Float.compare b a) breakdown
  in
  let total = List.fold_left (fun acc (_, e) -> acc +. e) 0. breakdown in
  { total; breakdown }

let energy_delay2 ?narrow_bits (m : Metrics.t) =
  let delay = Metrics.cycles m in
  (estimate ?narrow_bits m).total *. delay *. delay

let ed2_improvement_pct ?narrow_bits ~baseline m =
  100. *. ((energy_delay2 baseline /. energy_delay2 ?narrow_bits m) -. 1.)
