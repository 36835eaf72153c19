module Counts = Hc_obs.Counts

type t = {
  name : string;
  scheme_name : string;
  committed : int;
  ticks : int;
  copies : int;
  steered_narrow : int;
  split_uops : int;
  steered_888 : int;
  steered_br : int;
  steered_cr : int;
  steered_ir : int;
  steered_other : int;
  wide_default : int;
  wide_demoted : int;
  wpred_correct : int;
  wpred_fatal : int;
  wpred_nonfatal : int;
  prefetch_copies : int;
  prefetch_useful : int;
  nready_w2n : int;
  nready_n2w : int;
  issued_total : int;
  static_narrow_bound : int option;
  static_bidir_bound : int option;
  stall : Accounting.widths option;
  counts : int array;
}

let of_counts ~name ~scheme_name ?stall counts =
  let c id = counts.(id) in
  {
    name;
    scheme_name;
    committed = c Counts.committed;
    ticks = c Counts.tick;
    copies = c Counts.copies;
    steered_narrow = c Counts.steered_narrow;
    split_uops = c Counts.split_uops;
    steered_888 = c Counts.steered_888;
    steered_br = c Counts.steered_br;
    steered_cr = c Counts.steered_cr;
    steered_ir = c Counts.steered_ir;
    steered_other = c Counts.steered_other;
    wide_default = c Counts.wide_default;
    wide_demoted = c Counts.wide_demoted;
    wpred_correct = c Counts.wpred_correct;
    wpred_fatal = c Counts.wpred_fatal;
    wpred_nonfatal = c Counts.wpred_nonfatal;
    prefetch_copies = c Counts.prefetch_copies;
    prefetch_useful = c Counts.prefetch_useful;
    nready_w2n = c Counts.nready_w2n;
    nready_n2w = c Counts.nready_n2w;
    issued_total = c Counts.issue_wide + c Counts.issue_narrow;
    static_narrow_bound = None;
    static_bidir_bound = None;
    stall;
    counts;
  }

let cycles t = float_of_int t.ticks /. 2.

let ipc t = if t.ticks = 0 then 0. else float_of_int t.committed /. cycles t

let pct_of_committed t n =
  if t.committed = 0 then 0. else 100. *. float_of_int n /. float_of_int t.committed

let copy_pct t = pct_of_committed t t.copies

let steered_pct t = pct_of_committed t t.steered_narrow

let wpred_total t = t.wpred_correct + t.wpred_fatal + t.wpred_nonfatal

let wpred_pct t n =
  let total = wpred_total t in
  if total = 0 then 0. else 100. *. float_of_int n /. float_of_int total

let wpred_accuracy_pct t = wpred_pct t t.wpred_correct

let wpred_fatal_pct t = wpred_pct t t.wpred_fatal

let wpred_nonfatal_pct t = wpred_pct t t.wpred_nonfatal

let cp_accuracy_pct t =
  if t.prefetch_copies = 0 then 0.
  else 100. *. float_of_int t.prefetch_useful /. float_of_int t.prefetch_copies

let imbalance_pct t n =
  if t.issued_total = 0 then 0.
  else 100. *. float_of_int n /. float_of_int t.issued_total

let imbalance_w2n_pct t = imbalance_pct t t.nready_w2n

let imbalance_n2w_pct t = imbalance_pct t t.nready_n2w

let speedup_pct ~baseline t = 100. *. ((ipc t /. ipc baseline) -. 1.)

let steered_888_pct t = pct_of_committed t t.steered_888
let steered_br_pct t = pct_of_committed t t.steered_br
let steered_cr_pct t = pct_of_committed t t.steered_cr
let steered_ir_pct t = pct_of_committed t t.steered_ir
let wide_demoted_pct t = pct_of_committed t t.wide_demoted

let attrib_narrow_sum t =
  t.steered_888 + t.steered_br + t.steered_cr + t.steered_ir + t.steered_other

let attrib_consistent t = Counts.attrib_consistent t.counts

let stall_consistent t =
  match t.stall with None -> true | Some w -> Accounting.consistent w t.counts

let schema = 5

let to_json t =
  let b = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "{";
  p "\"schema\":%d," schema;
  p "\"name\":\"%s\"," (Hc_obs.Log.escape t.name);
  p "\"scheme\":\"%s\"," (Hc_obs.Log.escape t.scheme_name);
  p "\"committed\":%d," t.committed;
  p "\"ticks\":%d," t.ticks;
  p "\"cycles\":%.1f," (cycles t);
  p "\"ipc\":%.4f," (ipc t);
  List.iter
    (fun id ->
      if id <> Counts.committed then p "\"%s\":%d," (Counts.key id) t.counts.(id))
    Counts.results;
  p "\"issued_total\":%d," t.issued_total;
  ( match t.static_narrow_bound with
  | Some b -> p "\"static_narrow_bound\":%d," b
  | None -> () );
  ( match t.static_bidir_bound with
  | Some b -> p "\"static_bidir_bound\":%d," b
  | None -> () );
  ( match t.stall with
  | Some w -> p "\"stall\":%s," (Accounting.json_fragment w t.counts)
  | None -> () );
  p "\"counters\":{";
  let present = List.filter (Counts.present t.counts) Counts.activity in
  List.iteri
    (fun i id ->
      p "%s\"%s\":%d" (if i = 0 then "" else ",") (Counts.key id) t.counts.(id))
    present;
  p "}}";
  Buffer.contents b

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s [%s]@ committed=%d cycles=%.0f ipc=%.3f@ steered=%.1f%% \
     copies=%.1f%% splits=%d@ attrib: 888=%d br=%d cr=%d ir=%d other=%d | \
     wide: default=%d demoted=%d@ wpred: ok=%.1f%% fatal=%.2f%% \
     nonfatal=%.2f%%@ cp: %d prefetches, %.1f%% useful@ nready: w2n=%.1f%% \
     n2w=%.1f%%@]"
    t.name t.scheme_name t.committed (cycles t) (ipc t) (steered_pct t)
    (copy_pct t) t.split_uops t.steered_888 t.steered_br t.steered_cr
    t.steered_ir t.steered_other t.wide_default t.wide_demoted
    (wpred_accuracy_pct t) (wpred_fatal_pct t) (wpred_nonfatal_pct t)
    t.prefetch_copies (cp_accuracy_pct t) (imbalance_w2n_pct t)
    (imbalance_n2w_pct t)
