(* Prometheus text exposition (version 0.0.4) for Registry scrapes, plus
   the strict parser hc_report uses to validate and diff dumps. Histograms
   expose the standard cumulative _bucket/_sum/_count triple with
   power-of-two "le" edges (the registry's log2 buckets). *)

let escape_label_value s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_help s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let label_string labels =
  match labels with
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

let kind_name = function
  | Registry.Counter_v _ -> "counter"
  | Registry.Gauge_v _ -> "gauge"
  | Registry.Histogram_v _ -> "histogram"

let to_buffer buf (samples : Registry.sample list) =
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* HELP/TYPE headers are emitted once per metric name, on its first
     (sorted) appearance — scrapes are sorted, so label families group *)
  let last_header = ref "" in
  List.iter
    (fun (s : Registry.sample) ->
      if s.Registry.s_name <> !last_header then begin
        last_header := s.Registry.s_name;
        if s.Registry.s_help <> "" then
          p "# HELP %s %s\n" s.Registry.s_name (escape_help s.Registry.s_help);
        p "# TYPE %s %s\n" s.Registry.s_name (kind_name s.Registry.s_value)
      end;
      let labels = s.Registry.s_labels in
      match s.Registry.s_value with
      | Registry.Counter_v v | Registry.Gauge_v v ->
        p "%s%s %d\n" s.Registry.s_name (label_string labels) v
      | Registry.Histogram_v hv ->
        let cum = ref 0 in
        Array.iteri
          (fun b n ->
            (* keep the exposition compact: only edges up to the last
               populated bucket, then the mandatory +Inf *)
            cum := !cum + n;
            if n > 0 || b = 0 then
              p "%s_bucket%s %d\n" s.Registry.s_name
                (label_string (labels @ [ ("le", string_of_int (Registry.bucket_le b)) ]))
                !cum)
          hv.Registry.buckets;
        p "%s_bucket%s %d\n" s.Registry.s_name
          (label_string (labels @ [ ("le", "+Inf") ]))
          hv.Registry.h_count;
        p "%s_sum%s %d\n" s.Registry.s_name (label_string labels)
          hv.Registry.h_sum;
        p "%s_count%s %d\n" s.Registry.s_name (label_string labels)
          hv.Registry.h_count)
    samples

let to_string samples =
  let buf = Buffer.create 4096 in
  to_buffer buf samples;
  Buffer.contents buf

let write ~path samples =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string samples));
  path

(* ----- parser (for hc_report validate --prom and diff) ----- *)

type entry = {
  e_name : string;
  e_labels : (string * string) list;
  e_value : float;
}

exception Parse_error of int * string
(* line number (1-based) and message *)

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let parse_sample_line ~lineno line =
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (lineno, msg)) in
  let name_start = !pos in
  while !pos < n && is_name_char line.[!pos] do incr pos done;
  if !pos = name_start then fail "expected metric name";
  (match line.[name_start] with '0' .. '9' -> fail "metric name starts with a digit" | _ -> ());
  let name = String.sub line name_start (!pos - name_start) in
  let labels = ref [] in
  if !pos < n && line.[!pos] = '{' then begin
    incr pos;
    let parse_label () =
      let ls = !pos in
      while !pos < n && is_name_char line.[!pos] do incr pos done;
      if !pos = ls then fail "expected label name";
      let lname = String.sub line ls (!pos - ls) in
      if !pos >= n || line.[!pos] <> '=' then fail "expected '=' after label name";
      incr pos;
      if !pos >= n || line.[!pos] <> '"' then fail "expected '\"' opening label value";
      incr pos;
      let b = Buffer.create 16 in
      let rec value () =
        if !pos >= n then fail "unterminated label value"
        else
          match line.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            if !pos >= n then fail "dangling escape";
            ( match line.[!pos] with
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | 'n' -> Buffer.add_char b '\n'
            | _ -> fail "bad escape in label value" );
            incr pos;
            value ()
          | c ->
            Buffer.add_char b c;
            incr pos;
            value ()
      in
      value ();
      labels := (lname, Buffer.contents b) :: !labels
    in
    let rec labels_loop () =
      if !pos >= n then fail "unterminated label set"
      else if line.[!pos] = '}' then incr pos
      else begin
        parse_label ();
        if !pos < n && line.[!pos] = ',' then begin
          incr pos;
          labels_loop ()
        end
        else if !pos < n && line.[!pos] = '}' then incr pos
        else fail "expected ',' or '}' in label set"
      end
    in
    labels_loop ()
  end;
  if !pos >= n || line.[!pos] <> ' ' then fail "expected ' ' before value";
  while !pos < n && line.[!pos] = ' ' do incr pos done;
  let vstart = !pos in
  while !pos < n && line.[!pos] <> ' ' do incr pos done;
  let vstr = String.sub line vstart (!pos - vstart) in
  let value =
    match vstr with
    | "+Inf" -> infinity
    | "-Inf" -> neg_infinity
    | "NaN" -> nan
    | s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> fail ("bad sample value " ^ s))
  in
  (* an optional timestamp may follow; accept and ignore it *)
  while !pos < n && line.[!pos] = ' ' do incr pos done;
  if !pos < n then begin
    let ts = String.sub line !pos (n - !pos) in
    if float_of_string_opt ts = None then fail "trailing garbage after value"
  end;
  { e_name = name; e_labels = List.rev !labels; e_value = value }

let known_types = [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ]

let validate_comment ~lineno line =
  (* "# HELP name text", "# TYPE name kind", or a plain comment *)
  match String.split_on_char ' ' line with
  | "#" :: "TYPE" :: name :: kind :: [] ->
    if name = "" || not (String.for_all is_name_char name) then
      raise (Parse_error (lineno, "bad TYPE metric name"));
    if not (List.mem kind known_types) then
      raise (Parse_error (lineno, "unknown TYPE " ^ kind))
  | "#" :: "TYPE" :: _ -> raise (Parse_error (lineno, "malformed TYPE line"))
  | "#" :: "HELP" :: name :: _ ->
    if name = "" || not (String.for_all is_name_char name) then
      raise (Parse_error (lineno, "bad HELP metric name"))
  | _ -> ()  (* free-form comment *)

let parse text =
  let lines = String.split_on_char '\n' text in
  try
    let entries = ref [] in
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        if line = "" then ()
        else if line.[0] = '#' then validate_comment ~lineno line
        else entries := parse_sample_line ~lineno line :: !entries)
      lines;
    Ok (List.rev !entries)
  with Parse_error (lineno, msg) ->
    Error (Printf.sprintf "line %d: %s" lineno msg)

let series_key e =
  match List.sort compare e.e_labels with
  | [] -> e.e_name
  | labels -> e.e_name ^ label_string labels

let of_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    (match parse text with
    | Ok entries -> Ok entries
    | Error msg -> Error (path ^ ": " ^ msg))
