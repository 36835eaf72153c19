(* Top-down cycle accounting: every issue round and every commit round,
   each slot of the stage is attributed to exactly one category of a
   disjoint taxonomy, so per lane

     sum over categories = stage width * rounds accounted

   holds exactly (no tolerance) — the same partition discipline as the
   steering-attribution counters. The classification itself lives in
   [Pipeline] (it needs the node internals); this module owns the
   counters, the interval snapshots and the invariant. *)

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

let ncat = 9

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

let cat_name = function
  | Issued -> "issued"
  | Frontend -> "frontend"
  | Dispatch -> "dispatch"
  | Wait_operands -> "wait_operands"
  | Wait_copy -> "wait_copy"
  | Memory -> "memory"
  | Width_recovery -> "width_recovery"
  | Drained -> "drained"
  | Idle -> "idle"

let categories =
  [ Issued; Frontend; Dispatch; Wait_operands; Wait_copy; Memory;
    Width_recovery; Drained; Idle ]

(* Lanes: the two issue stages plus the commit stage. *)
let lane_wide = 0
let lane_narrow = 1
let lane_commit = 2
let nlanes = 3

let lane_name = function
  | 0 -> "wide"
  | 1 -> "narrow"
  | 2 -> "commit"
  | _ -> invalid_arg "Accounting.lane_name"

type totals = {
  issue_width : int;
  commit_width : int;
  slots : int array array;  (* [nlanes][ncat], category slot counts *)
  rounds : int array;  (* [nlanes], stage rounds accounted *)
}

let lane_width t lane = if lane = lane_commit then t.commit_width else t.issue_width

let zero_totals ~issue_width ~commit_width =
  {
    issue_width;
    commit_width;
    slots = Array.init nlanes (fun _ -> Array.make ncat 0);
    rounds = Array.make nlanes 0;
  }

let copy_totals t =
  {
    t with
    slots = Array.map Array.copy t.slots;
    rounds = Array.copy t.rounds;
  }

let add_totals a b =
  {
    issue_width = a.issue_width;
    commit_width = a.commit_width;
    slots =
      Array.init nlanes (fun l ->
          Array.init ncat (fun c -> a.slots.(l).(c) + b.slots.(l).(c)));
    rounds = Array.init nlanes (fun l -> a.rounds.(l) + b.rounds.(l));
  }

let sub_totals a b =
  {
    issue_width = a.issue_width;
    commit_width = a.commit_width;
    slots =
      Array.init nlanes (fun l ->
          Array.init ncat (fun c -> a.slots.(l).(c) - b.slots.(l).(c)));
    rounds = Array.init nlanes (fun l -> a.rounds.(l) - b.rounds.(l));
  }

let lane_sum t lane = Array.fold_left ( + ) 0 t.slots.(lane)

(* The partition invariant, exact per lane. *)
let consistent t =
  lane_sum t lane_wide = t.issue_width * t.rounds.(lane_wide)
  && lane_sum t lane_narrow = t.issue_width * t.rounds.(lane_narrow)
  && lane_sum t lane_commit = t.commit_width * t.rounds.(lane_commit)

let get t ~lane cat = t.slots.(lane).(cat_index cat)

let share_pct t ~lane cat =
  let total = lane_width t lane * t.rounds.(lane) in
  if total = 0 then 0.
  else 100. *. float_of_int (get t ~lane cat) /. float_of_int total

(* ----- live accumulator -----

   One flat int array, [stride] entries per lane: the category slot
   counts in [cat_index] order, then the lane's round count. [add] and
   [round] are a single indexed increment, inlined into the pipeline's
   per-round attribution. *)

type interval = { iv_start : int; iv_end : int; iv_d : totals }

let stride = ncat + 1

type t = {
  issue_w : int;
  commit_w : int;
  live : int array;
  mutable ivals : interval list;  (* newest first *)
  mutable last_tick : int;
  mutable last : totals;  (* snapshot at the previous interval boundary *)
}

let create ~issue_width ~commit_width () =
  {
    issue_w = issue_width;
    commit_w = commit_width;
    live = Array.make (nlanes * stride) 0;
    ivals = [];
    last_tick = 0;
    last = zero_totals ~issue_width ~commit_width;
  }

let[@inline] add t ~lane cat n =
  let i = (lane * stride) + cat_index cat in
  t.live.(i) <- t.live.(i) + n

let[@inline] round t ~lane =
  let i = (lane * stride) + ncat in
  t.live.(i) <- t.live.(i) + 1

let totals t =
  {
    issue_width = t.issue_w;
    commit_width = t.commit_w;
    slots = Array.init nlanes (fun l -> Array.sub t.live (l * stride) ncat);
    rounds = Array.init nlanes (fun l -> t.live.((l * stride) + ncat));
  }

let snapshot t ~tick =
  if tick > t.last_tick then begin
    let cur = totals t in
    let d = sub_totals cur t.last in
    t.ivals <- { iv_start = t.last_tick; iv_end = tick; iv_d = d } :: t.ivals;
    t.last_tick <- tick;
    t.last <- cur
  end

let intervals t = List.rev t.ivals

(* ----- interval CSV (stall time series for hc_report topdown) ----- *)

let csv_header =
  let cols =
    List.concat_map
      (fun lane ->
        List.map
          (fun c -> Printf.sprintf "%s_%s" (lane_name lane) (cat_name c))
          categories
        @ [ Printf.sprintf "%s_rounds" (lane_name lane) ])
      [ lane_wide; lane_narrow; lane_commit ]
  in
  String.concat "," ("t_start" :: "t_end" :: cols)

let interval_csv_row iv =
  let b = Buffer.create 128 in
  Buffer.add_string b (string_of_int iv.iv_start);
  Buffer.add_char b ',';
  Buffer.add_string b (string_of_int iv.iv_end);
  List.iter
    (fun lane ->
      List.iter
        (fun c ->
          Buffer.add_char b ',';
          Buffer.add_string b (string_of_int (get iv.iv_d ~lane c)))
        categories;
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int iv.iv_d.rounds.(lane)))
    [ lane_wide; lane_narrow; lane_commit ];
  Buffer.contents b

(* ----- JSON fragment (embedded in Metrics.to_json, schema 4) ----- *)

let json_fragment t =
  let b = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "{\"issue_width\":%d,\"commit_width\":%d" t.issue_width t.commit_width;
  List.iter
    (fun lane ->
      p ",\"%s\":{\"rounds\":%d" (lane_name lane) t.rounds.(lane);
      List.iter (fun c -> p ",\"%s\":%d" (cat_name c) (get t ~lane c)) categories;
      p "}")
    [ lane_wide; lane_narrow; lane_commit ];
  p "}";
  Buffer.contents b
