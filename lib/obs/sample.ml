type t = {
  t_start : int;
  t_end : int;
  d : int array;
  iq_wide : int;
  iq_narrow : int;
  rob : int;
}

let make ~t_start ~t_end ~iq_wide ~iq_narrow ~rob d =
  { t_start; t_end; d; iq_wide; iq_narrow; rob }

(* wide-cluster cycles are half the fast ticks *)
let ipc s =
  let ticks = s.t_end - s.t_start in
  if ticks = 0 then 0.
  else float_of_int s.d.(Counts.committed) /. (float_of_int ticks /. 2.)

let wpred_accuracy s =
  let d = s.d in
  let total =
    d.(Counts.wpred_correct) + d.(Counts.wpred_fatal) + d.(Counts.wpred_nonfatal)
  in
  if total = 0 then 0.
  else 100. *. float_of_int d.(Counts.wpred_correct) /. float_of_int total

let aggregate samples =
  List.fold_left (fun acc s -> Counts.add acc s.d) (Counts.make ()) samples

(* The interval series' columns, in their CSV and JSON order; new
   columns are appended so existing consumers keep their offsets. A
   [Count] column is a table entry's delta over the interval. *)
type column =
  | T_start
  | T_end
  | Ipc
  | Count of Counts.id
  | Wpred_accuracy
  | Issued_total
  | Iq_wide
  | Iq_narrow
  | Rob

let columns =
  Counts.
    [ T_start; T_end; Ipc; Count committed; Count steered_narrow; Count copies;
      Count split_uops; Count wpred_correct; Count wpred_fatal;
      Count wpred_nonfatal; Wpred_accuracy; Count prefetch_copies;
      Count prefetch_useful; Count nready_w2n; Count nready_n2w; Issued_total;
      Iq_wide; Iq_narrow; Rob; Count steered_888; Count steered_br;
      Count steered_cr; Count steered_ir; Count steered_other;
      Count wide_default; Count wide_demoted ]

let column_name = function
  | T_start -> "t_start"
  | T_end -> "t_end"
  | Ipc -> "ipc"
  | Count id -> Counts.key id
  | Wpred_accuracy -> "wpred_accuracy_pct"
  | Issued_total -> "issued_total"
  | Iq_wide -> "iq_wide"
  | Iq_narrow -> "iq_narrow"
  | Rob -> "rob"

let cell s = function
  | T_start -> string_of_int s.t_start
  | T_end -> string_of_int s.t_end
  | Ipc -> Printf.sprintf "%.4f" (ipc s)
  | Count id -> string_of_int s.d.(id)
  | Wpred_accuracy -> Printf.sprintf "%.2f" (wpred_accuracy s)
  | Issued_total ->
    string_of_int (s.d.(Counts.issue_wide) + s.d.(Counts.issue_narrow))
  | Iq_wide -> string_of_int s.iq_wide
  | Iq_narrow -> string_of_int s.iq_narrow
  | Rob -> string_of_int s.rob

let csv_header = String.concat "," (List.map column_name columns)

let to_csv_row s = String.concat "," (List.map (cell s) columns)

let to_json s =
  "{"
  ^ String.concat ","
      (List.map (fun c -> Printf.sprintf "\"%s\":%s" (column_name c) (cell s c)) columns)
  ^ "}"
