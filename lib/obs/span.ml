(* Stage spans: named wall-clock intervals (generate / simulate /
   static-analysis / cache-lookup / encode / decode / task ...) with the
   GC's [quick_stat] deltas attached, recorded into a process-wide
   collector when observability is on.

   Spans are coarse (one per pipeline stage or pool task, not per uop),
   so the collector is a mutex-guarded list — contention is negligible
   next to the work each span brackets. The disabled path is one atomic
   load and a direct call of the wrapped function. *)

type span = {
  sp_name : string;
  sp_track : string;
  sp_start_ns : int;  (* since the collector's epoch *)
  sp_dur_ns : int;
  sp_minor_words : float;
  sp_major_words : float;
  sp_minor_collections : int;
  sp_major_collections : int;
  sp_meta : (string * string) list;
}

type t = {
  epoch : float;  (* Unix time of collector creation *)
  m : Mutex.t;
  mutable spans_rev : span list;
}

let create () =
  { epoch = Unix.gettimeofday (); m = Mutex.create (); spans_rev = [] }

let record t sp =
  Mutex.lock t.m;
  t.spans_rev <- sp :: t.spans_rev;
  Mutex.unlock t.m

let spans t =
  Mutex.lock t.m;
  let s = t.spans_rev in
  Mutex.unlock t.m;
  List.rev s

(* ----- per-domain track names ----- *)

(* Domain_pool workers label their spans "worker<i>"; anything else
   defaults to a stable per-domain name. *)
let track_key =
  Domain.DLS.new_key (fun () ->
      let id = (Domain.self () :> int) in
      if id = 0 then "main" else Printf.sprintf "d%d" id)

let set_track name = Domain.DLS.set track_key name

let track () = Domain.DLS.get track_key

(* ----- the ambient collector ----- *)

let ambient_col : t option Atomic.t = Atomic.make None

let ambient () = Atomic.get ambient_col

let is_enabled () = Atomic.get ambient_col <> None

let enable () =
  match Atomic.get ambient_col with
  | Some t -> t
  | None ->
    let t = create () in
    if Atomic.compare_and_set ambient_col None (Some t) then t
    else (match Atomic.get ambient_col with Some t -> t | None -> t)

let disable () = Atomic.set ambient_col None

let ns_of t now = int_of_float ((now -. t.epoch) *. 1e9)

(* The timed section runs inside [Fun.protect] so a raising stage still
   leaves no half-open span behind; exceptions propagate unchanged and
   the span is simply not recorded (observability must not reinterpret
   failures as data). *)
let with_span ?(meta = []) name f =
  match Atomic.get ambient_col with
  | None -> f ()
  | Some t ->
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let result = f () in
    let t1 = Unix.gettimeofday () in
    let g1 = Gc.quick_stat () in
    record t
      {
        sp_name = name;
        sp_track = track ();
        sp_start_ns = ns_of t t0;
        sp_dur_ns = max 0 (int_of_float ((t1 -. t0) *. 1e9));
        sp_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        sp_major_words = g1.Gc.major_words -. g0.Gc.major_words;
        sp_minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
        sp_major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        sp_meta = meta;
      };
    result

(* ----- summaries ----- *)

type stage_stats = {
  st_name : string;
  st_count : int;
  st_total_ns : int;
  st_max_ns : int;
  st_minor_words : float;
  st_major_words : float;
}

let by_stage spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let cur =
        match Hashtbl.find_opt tbl sp.sp_name with
        | Some s -> s
        | None ->
          { st_name = sp.sp_name; st_count = 0; st_total_ns = 0; st_max_ns = 0;
            st_minor_words = 0.; st_major_words = 0. }
      in
      Hashtbl.replace tbl sp.sp_name
        {
          cur with
          st_count = cur.st_count + 1;
          st_total_ns = cur.st_total_ns + sp.sp_dur_ns;
          st_max_ns = max cur.st_max_ns sp.sp_dur_ns;
          st_minor_words = cur.st_minor_words +. sp.sp_minor_words;
          st_major_words = cur.st_major_words +. sp.sp_major_words;
        })
    spans;
  List.sort
    (fun a b -> String.compare a.st_name b.st_name)
    (Hashtbl.fold (fun _ s acc -> s :: acc) tbl [])
