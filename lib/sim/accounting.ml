(* Top-down cycle accounting: every issue round and every commit round,
   each slot of the stage is attributed to exactly one category of a
   disjoint taxonomy, so per lane

     sum over categories = stage width * rounds accounted

   holds exactly (no tolerance) — the same partition discipline as the
   steering-attribution counters. The classification itself lives in
   [Pipeline] (it needs the node internals); the counts are the [Stall]
   rows of the run's count vector ([Hc_obs.Counts]), so interval deltas
   come from the same [Sink] samples as every other count. This module
   names them, checks the invariant and writes their serialized forms. *)

module Counts = Hc_obs.Counts

type category =
  | Issued  (* the slot did useful work (issued a uop / committed one) *)
  | Frontend  (* starved: fetch stalled (branch penalty, TC miss) *)
  | Dispatch  (* dispatch blocked on a full ROB / issue queue / regfile *)
  | Wait_operands  (* occupants wait on in-flight producers (or the ROB
                      head is still executing a non-memory uop) *)
  | Wait_copy  (* occupants wait on inter-cluster communication *)
  | Memory  (* blocked behind an in-flight load, or a full MOB *)
  | Width_recovery  (* wide side draining a width-violation flush *)
  | Drained  (* narrow side emptied by a width-violation flush *)
  | Idle  (* nothing ready, no stall source to blame (true idleness) *)

let categories =
  [ Issued; Frontend; Dispatch; Wait_operands; Wait_copy; Memory;
    Width_recovery; Drained; Idle ]

let ncat = 9

(* the category's column in [Counts.stall_columns]; the lane's round
   count is column [ncat] *)
let[@inline] cat_index = function
  | Issued -> 0
  | Frontend -> 1
  | Dispatch -> 2
  | Wait_operands -> 3
  | Wait_copy -> 4
  | Memory -> 5
  | Width_recovery -> 6
  | Drained -> 7
  | Idle -> 8

let cat_names = Array.of_list Counts.stall_columns
let cat_name c = cat_names.(cat_index c)

(* Lanes: the two issue stages plus the commit stage, in
   [Counts.stall_lanes] order. *)
let lane_wide = 0
let lane_narrow = 1
let lane_commit = 2
let nlanes = List.length Counts.stall_lanes
let lanes = List.init nlanes Fun.id

let lane_names = Array.of_list Counts.stall_lanes
let lane_name lane = lane_names.(lane)

type widths = { issue_width : int; commit_width : int }

let lane_width w lane =
  if lane = lane_commit then w.commit_width else w.issue_width

(* ----- the stall rows of a count vector ----- *)

let[@inline] add v ~lane cat n =
  let i = Counts.stall ~lane (cat_index cat) in
  v.(i) <- v.(i) + n

let[@inline] rounds_add v ~lane n =
  let i = Counts.stall ~lane ncat in
  v.(i) <- v.(i) + n

let get v ~lane cat = v.(Counts.stall ~lane (cat_index cat))
let rounds v ~lane = v.(Counts.stall ~lane ncat)

let lane_sum v lane =
  List.fold_left (fun acc c -> acc + get v ~lane c) 0 categories

(* The partition invariant, exact per lane. *)
let consistent w v =
  List.for_all
    (fun lane -> lane_sum v lane = lane_width w lane * rounds v ~lane)
    lanes

let share_pct v ~lane cat =
  let total = lane_sum v lane in
  if total = 0 then 0.
  else 100. *. float_of_int (get v ~lane cat) /. float_of_int total

(* ----- interval CSV (stall time series for hc_report topdown) ----- *)

let csv_header =
  String.concat "," ("t_start" :: "t_end" :: List.map Counts.key Counts.stall_ids)

let csv_row ~t_start ~t_end v =
  String.concat ","
    (string_of_int t_start :: string_of_int t_end
    :: List.map (fun id -> string_of_int v.(id)) Counts.stall_ids)

(* ----- JSON fragment (embedded in Metrics.to_json, schema 4) ----- *)

let json_fragment w v =
  let b = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "{\"issue_width\":%d,\"commit_width\":%d" w.issue_width w.commit_width;
  List.iter
    (fun lane ->
      p ",\"%s\":{\"rounds\":%d" (lane_name lane) (rounds v ~lane);
      List.iter (fun c -> p ",\"%s\":%d" (cat_name c) (get v ~lane c)) categories;
      p "}")
    lanes;
  p "}";
  Buffer.contents b
