(* The parallel experiment engine: the domain pool itself, and the
   bit-identical-to-sequential guarantee of the batch simulation fan-out
   (ISSUE 1's determinism requirement). *)

module Domain_pool = Hc_core.Domain_pool
module Runs = Hc_core.Runs
module Profile = Hc_trace.Profile
module Trace = Hc_trace.Trace
module Metrics = Hc_sim.Metrics
module Counts = Hc_obs.Counts

(* ----- the pool ----- *)

let test_pool_map_order () =
  let pool = Domain_pool.create ~jobs:3 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let xs = Array.init 100 Fun.id in
      let ys = Domain_pool.map pool (fun x -> (x * x) + 1) xs in
      Alcotest.(check (array int))
        "results in input order"
        (Array.map (fun x -> (x * x) + 1) xs)
        ys;
      Alcotest.(check (list int))
        "map_list too" [ 2; 5; 10 ]
        (Domain_pool.map_list pool (fun x -> (x * x) + 1) [ 1; 2; 3 ]))

let test_pool_exception () =
  let pool = Domain_pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Alcotest.check_raises "first error re-raised" Exit (fun () ->
          ignore
            (Domain_pool.map pool
               (fun x -> if x = 7 then raise Exit else x)
               (Array.init 32 Fun.id)));
      (* the pool survives a failed batch *)
      Alcotest.(check (array int))
        "pool still works" [| 0; 2; 4 |]
        (Domain_pool.map pool (fun x -> 2 * x) [| 0; 1; 2 |]))

let test_pool_sequential_degenerate () =
  let pool = Domain_pool.create ~jobs:1 in
  Alcotest.(check int) "jobs clamped" 1 (Domain_pool.jobs pool);
  Alcotest.(check (array int))
    "inline map" [| 1; 2; 3 |]
    (Domain_pool.map pool succ [| 0; 1; 2 |]);
  (* no domains were spawned; shutdown is a no-op *)
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool

(* ----- determinism of the batch engine ----- *)

let metrics_equal ~cell (a : Metrics.t) (b : Metrics.t) =
  let check what x y = Alcotest.(check int) (cell ^ ": " ^ what) x y in
  Alcotest.(check string) (cell ^ ": name") a.Metrics.name b.Metrics.name;
  Alcotest.(check string)
    (cell ^ ": scheme") a.Metrics.scheme_name b.Metrics.scheme_name;
  Array.iteri
    (fun id (e : Counts.entry) ->
      check e.Counts.key a.Metrics.counts.(id) b.Metrics.counts.(id))
    Counts.table

let schemes = [ "baseline"; "8_8_8"; "+CR"; "+IR" ]
let length = 3_000

let fill_sequential () =
  (* the pre-engine path: memoized on-demand, one simulation at a time *)
  Domain_pool.set_jobs 1;
  let runs = Runs.create ~length () in
  List.iter
    (fun scheme ->
      List.iter
        (fun p -> ignore (Runs.metrics runs ~scheme p))
        Runs.spec_profiles)
    schemes;
  runs

let fill_parallel ~jobs =
  Domain_pool.set_jobs jobs;
  let runs = Runs.create ~length () in
  Runs.ensure_spec runs schemes;
  runs

let test_parallel_matches_sequential () =
  let seq = fill_sequential () in
  let par = fill_parallel ~jobs:4 in
  List.iter
    (fun scheme ->
      List.iter
        (fun (p : Profile.t) ->
          metrics_equal
            ~cell:(scheme ^ " x " ^ p.Profile.name)
            (Runs.metrics seq ~scheme p)
            (Runs.metrics par ~scheme p))
        Runs.spec_profiles)
    schemes;
  Domain_pool.set_jobs (Domain_pool.default_jobs ())

let test_parallel_traces_match () =
  Domain_pool.set_jobs 4;
  let par = Runs.create ~length () in
  Runs.ensure_traces par Runs.spec_profiles;
  let seq = Runs.create ~length () in
  List.iter
    (fun (p : Profile.t) ->
      let a = Runs.trace seq p and b = Runs.trace par p in
      Alcotest.(check int)
        (p.Profile.name ^ ": length") (Trace.length a) (Trace.length b);
      Alcotest.(check bool) (p.Profile.name ^ ": uops identical") true
        (Trace.soa a = Trace.soa b))
    Runs.spec_profiles;
  Domain_pool.set_jobs (Domain_pool.default_jobs ())

let test_ensure_idempotent () =
  let runs = Runs.create ~length () in
  Runs.ensure runs [ ("8_8_8", Profile.find_spec_int "gcc") ];
  let a = Runs.metrics runs ~scheme:"8_8_8" (Profile.find_spec_int "gcc") in
  Runs.ensure runs [ ("8_8_8", Profile.find_spec_int "gcc") ];
  let b = Runs.metrics runs ~scheme:"8_8_8" (Profile.find_spec_int "gcc") in
  Alcotest.(check bool) "memo survives re-ensure (same physical)" true (a == b);
  Alcotest.check_raises "unknown scheme rejected before fan-out" Not_found
    (fun () -> Runs.ensure runs [ ("nonesuch", Profile.find_spec_int "gcc") ])

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool map preserves order" `Quick test_pool_map_order;
      Alcotest.test_case "pool exception propagation" `Quick test_pool_exception;
      Alcotest.test_case "jobs=1 degenerates to inline" `Quick
        test_pool_sequential_degenerate;
      Alcotest.test_case "4-worker batch == sequential metrics" `Slow
        test_parallel_matches_sequential;
      Alcotest.test_case "parallel trace generation identical" `Slow
        test_parallel_traces_match;
      Alcotest.test_case "ensure is idempotent and pre-validates" `Quick
        test_ensure_idempotent;
    ] )
