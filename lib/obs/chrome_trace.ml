let pid = 1

let tid_cluster c = c (* 0 wide, 1 narrow *)
let tid_iq c = 2 + c
let tid_retire = 4

type emitter = { buf : Buffer.t; mutable first : bool }

let event em fmt =
  if em.first then em.first <- false else Buffer.add_string em.buf ",\n    ";
  Printf.ksprintf (Buffer.add_string em.buf) fmt

let meta_thread em ~tid ~name ~sort =
  event em
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
     \"args\":{\"name\":\"%s\"}}"
    pid tid (Log.escape name);
  event em
    "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\
     \"args\":{\"sort_index\":%d}}"
    pid tid sort

let complete em ~tid ~ts ~dur ~name ~id ~trace_idx ~kind =
  event em
    "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\
     \"tid\":%d,\"args\":{\"uop\":%d,\"trace_idx\":%d,\"kind\":\"%s\"}}"
    (Log.escape name) ts dur pid tid id trace_idx kind

let instant em ~tid ~ts ~name ~id =
  event em
    "{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%d,\"pid\":%d,\"tid\":%d,\
     \"s\":\"t\",\"args\":{\"uop\":%d}}"
    (Log.escape name) ts pid tid id

let counter em ~ts ~name ~pairs =
  let args =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) pairs)
  in
  event em
    "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%d,\"pid\":%d,\"tid\":0,\
     \"args\":{%s}}"
    name ts pid args

let put_event em (e : Event.t) =
  let c = if e.Event.cluster < 0 then 0 else e.Event.cluster in
  match e.Event.kind with
  | Event.Writeback ->
    (* execution span on the cluster track: issue tick -> writeback tick *)
    let issue_ts = e.Event.b in
    let dur = max 0 (e.Event.tick - issue_ts) in
    complete em ~tid:(tid_cluster c) ~ts:issue_ts ~dur ~name:e.Event.name
      ~id:e.Event.id ~trace_idx:e.Event.trace_idx ~kind:"exec";
    (* queue-residency span on the issue-queue track: dispatch -> issue *)
    let disp_ts = e.Event.a in
    if issue_ts > disp_ts then
      complete em ~tid:(tid_iq c) ~ts:disp_ts ~dur:(issue_ts - disp_ts)
        ~name:e.Event.name ~id:e.Event.id ~trace_idx:e.Event.trace_idx
        ~kind:"queued"
  | Event.Commit ->
    instant em ~tid:tid_retire ~ts:e.Event.tick
      ~name:("commit " ^ e.Event.name) ~id:e.Event.id
  | Event.Flush ->
    instant em ~tid:tid_retire ~ts:e.Event.tick
      ~name:("width-flush " ^ e.Event.name) ~id:e.Event.id
  | Event.Replay ->
    instant em ~tid:tid_retire ~ts:e.Event.tick
      ~name:("replay " ^ e.Event.name) ~id:e.Event.id
  | Event.Squash ->
    instant em ~tid:(tid_cluster c) ~ts:e.Event.tick
      ~name:("squash " ^ e.Event.name) ~id:e.Event.id
  | Event.Dispatch | Event.Issue ->
    (* subsumed by the Writeback span; keep instants only for uops whose
       writeback never happened (still useful when the ring wrapped) *)
    ()

(* Stage spans (Span.t) render as complete events on their own tracks,
   one tid per distinct span track ("main", "worker3", ...), appended
   after the pipeline tids so Perfetto shows machine activity on top and
   host-side stages below. Span timestamps are wall-clock ns from the
   collector epoch; Chrome traces want integer microseconds. *)
let span_tid_base = 16

let put_spans em spans =
  let tracks = Hashtbl.create 8 in
  let next = ref span_tid_base in
  let tid_of track =
    match Hashtbl.find_opt tracks track with
    | Some tid -> tid
    | None ->
      let tid = !next in
      incr next;
      Hashtbl.add tracks track tid;
      meta_thread em ~tid ~name:("stage: " ^ track) ~sort:tid;
      tid
  in
  List.iter
    (fun (sp : Span.span) ->
      let tid = tid_of sp.Span.sp_track in
      let args =
        String.concat ","
          (Printf.sprintf "\"gc_minor_words\":%.1f" sp.Span.sp_minor_words
          :: Printf.sprintf "\"gc_major_words\":%.1f" sp.Span.sp_major_words
          :: Printf.sprintf "\"gc_minor_collections\":%d"
               sp.Span.sp_minor_collections
          :: Printf.sprintf "\"gc_major_collections\":%d"
               sp.Span.sp_major_collections
          :: List.map
               (fun (k, v) ->
                 Printf.sprintf "\"%s\":\"%s\"" (Log.escape k) (Log.escape v))
               sp.Span.sp_meta)
      in
      event em
        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%d,\"dur\":%d,\"pid\":%d,\
         \"tid\":%d,\"args\":{%s}}"
        (Log.escape sp.Span.sp_name)
        (sp.Span.sp_start_ns / 1000)
        (max 1 (sp.Span.sp_dur_ns / 1000))
        pid tid args)
    spans

let to_buffer ?ring ?(stage_spans = []) buf ~events ~samples =
  let em = { buf; first = true } in
  Buffer.add_string buf "{\n  \"displayTimeUnit\": \"ms\",\n";
  (* ring statistics let a reader tell a complete trace from a window
     that lost its oldest events to buffer wrap (hc_report warns) *)
  ( match ring with
  | Some (pushed, dropped) ->
    Buffer.add_string buf
      (Printf.sprintf
         "  \"otherData\": {\"events_pushed\": %d, \"events_dropped\": %d},\n"
         pushed dropped)
  | None -> () );
  Buffer.add_string buf "  \"traceEvents\": [\n    ";
  event em
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\
     \"args\":{\"name\":\"helper-cluster pipeline\"}}"
    pid;
  meta_thread em ~tid:(tid_cluster 0) ~name:"wide cluster" ~sort:0;
  meta_thread em ~tid:(tid_cluster 1) ~name:"narrow cluster (helper)" ~sort:1;
  meta_thread em ~tid:(tid_iq 0) ~name:"wide issue queue" ~sort:2;
  meta_thread em ~tid:(tid_iq 1) ~name:"narrow issue queue" ~sort:3;
  meta_thread em ~tid:tid_retire ~name:"retire / recovery" ~sort:4;
  List.iter (put_event em) events;
  put_spans em stage_spans;
  List.iter
    (fun (s : Sample.t) ->
      counter em ~ts:s.Sample.t_end ~name:"iq_occupancy"
        ~pairs:
          [ ("wide", string_of_int s.Sample.iq_wide);
            ("narrow", string_of_int s.Sample.iq_narrow) ];
      counter em ~ts:s.Sample.t_end ~name:"ipc"
        ~pairs:[ ("ipc", Printf.sprintf "%.4f" (Sample.ipc s)) ];
      counter em ~ts:s.Sample.t_end ~name:"rob_occupancy"
        ~pairs:[ ("rob", string_of_int s.Sample.rob) ];
      (* NREADY imbalance (§3.7) per interval, next to the occupancy
         tracks it explains *)
      counter em ~ts:s.Sample.t_end ~name:"nready"
        ~pairs:
          [ ("w2n", string_of_int s.Sample.d.(Counts.nready_w2n));
            ("n2w", string_of_int s.Sample.d.(Counts.nready_n2w)) ])
    samples;
  Buffer.add_string buf "\n  ]\n}\n"

let to_string ?ring ?stage_spans ~events ~samples () =
  let buf = Buffer.create 65536 in
  to_buffer ?ring ?stage_spans buf ~events ~samples;
  Buffer.contents buf

let write ?ring ?stage_spans ~path ~events ~samples () =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      to_buffer ?ring ?stage_spans buf ~events ~samples;
      Buffer.output_buffer oc buf);
  path
