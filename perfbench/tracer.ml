(* In-memory span recorder for the benchmark's traced runs.

   A span is one call into a layer, wrapped from the benchmark's own code:
   name, start, end, the enclosing span and the [Gc.quick_stat] deltas
   over its extent. Durations leave out the calibration slices (see
   Calib) that ran inside the span. Spans are kept in a growable array
   while the traced passes run and written out once, at exit. With
   recording off, [with_span] is a plain call. *)

type span = {
  name : string;
  parent : int;  (** index of the enclosing span; [-1] at top level *)
  start : float;
  mutable stop : float;
  slice0 : float;  (** calibration seconds before the span *)
  mutable slice1 : float;
  mutable minor_words : float;
  mutable major_collections : int;
}

let recording = ref false
let spans : span array ref = ref [||]
let count = ref 0
let current = ref (-1)

let push s =
  if !count = Array.length !spans then begin
    let grown = Array.make (max 256 (2 * !count)) s in
    Array.blit !spans 0 grown 0 !count;
    spans := grown
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let with_span name f =
  if not !recording then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let id =
      push
        { name; parent = !current; start = Unix.gettimeofday (); stop = nan;
          slice0 = Calib.totals.(0); slice1 = nan; minor_words = 0.;
          major_collections = 0 }
    in
    let saved = !current in
    current := id;
    let finish () =
      let s = !spans.(id) in
      s.stop <- Unix.gettimeofday ();
      s.slice1 <- Calib.totals.(0);
      let g1 = Gc.quick_stat () in
      s.minor_words <- g1.Gc.minor_words -. g0.Gc.minor_words;
      s.major_collections <- g1.Gc.major_collections - g0.Gc.major_collections;
      current := saved
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let all () = Array.sub !spans 0 !count
let duration s = s.stop -. s.start -. (s.slice1 -. s.slice0)

(* Self time: a span's duration minus the time its direct children cover.
   Children run sequentially inside their parent, so the subtraction is
   exact up to float rounding. *)
let self_times () =
  let a = all () in
  let covered = Array.make (Array.length a) 0. in
  Array.iter
    (fun s -> if s.parent >= 0 then covered.(s.parent) <- covered.(s.parent) +. duration s)
    a;
  Array.mapi (fun i s -> (s, duration s -. covered.(i))) a

(* Total self time per span name, in first-seen order. *)
let self_by_name () =
  let tbl = Hashtbl.create 32 and order = ref [] in
  Array.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some t -> Hashtbl.replace tbl s.name (t +. self)
      | None ->
        Hashtbl.add tbl s.name self;
        order := s.name :: !order)
    (self_times ());
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let total_duration name =
  Array.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. (all ())

(* Chrome trace-event JSON: loadable in Perfetto / chrome://tracing. *)
let write_chrome path =
  let a = all () in
  let t0 = if Array.length a = 0 then 0. else a.(0).start in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"minor_words\":%.0f,\"major_collections\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.start -. t0) *. 1e6)
        (duration s *. 1e6)
        i s.parent s.minor_words s.major_collections)
    a;
  output_string oc "]}\n";
  close_out oc
