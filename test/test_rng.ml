(* Tests for the deterministic RNG. *)

module Rng = Hc_trace.Rng

let test_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for i = 1 to 100 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  Alcotest.(check bool) "different seeds diverge" true
    (Rng.next_int64 a <> Rng.next_int64 b)

let test_copy_vs_split () =
  let a = Rng.create 7L in
  let c = Rng.copy a in
  Alcotest.(check int64) "copy preserves stream" (Rng.next_int64 a)
    (Rng.next_int64 c);
  let a = Rng.create 7L in
  let s = Rng.split a in
  Alcotest.(check bool) "split diverges from parent" true
    (Rng.next_int64 s <> Rng.next_int64 a)

let test_bounds () =
  let r = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let v = Rng.int_in r 5 8 in
    Alcotest.(check bool) "int_in in range" true (v >= 5 && v <= 8);
    let f = Rng.float r in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0. && f < 1.)
  done

let test_errors () =
  let r = Rng.create 1L in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in r 3 2));
  Alcotest.check_raises "geometric mean < 1"
    (Invalid_argument "Rng.geometric: mean must be >= 1") (fun () ->
      ignore (Rng.geometric r 0.5));
  Alcotest.check_raises "empty choice" (Invalid_argument "Rng.choice: empty array")
    (fun () -> ignore (Rng.choice r [||]));
  Alcotest.check_raises "weighted zero sum"
    (Invalid_argument "Rng.weighted: non-positive weight sum") (fun () ->
      ignore (Rng.weighted r [ (0., `A) ]))

let test_bool_extremes () =
  let r = Rng.create 9L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bool r 0.);
    Alcotest.(check bool) "p=1 always" true (Rng.bool r 1.)
  done

let test_geometric () =
  let r = Rng.create 11L in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let v = Rng.geometric r 4.0 in
    Alcotest.(check bool) "at least 1" true (v >= 1);
    sum := !sum + v
  done;
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean approx 4 (got %.2f)" mean)
    true
    (mean > 3.5 && mean < 4.5);
  Alcotest.(check int) "mean 1 degenerates" 1 (Rng.geometric r 1.)

let test_weighted () =
  let r = Rng.create 13L in
  (* zero-weight outcomes never drawn *)
  for _ = 1 to 500 do
    match Rng.weighted r [ (0., `Never); (1., `Always) ] with
    | `Never -> Alcotest.fail "drew zero-weight outcome"
    | `Always -> ()
  done;
  (* rough proportionality *)
  let a = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    match Rng.weighted r [ (3., `A); (1., `B) ] with
    | `A -> incr a
    | `B -> ()
  done;
  let frac = float_of_int !a /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "3:1 weighting approx (got %.3f)" frac)
    true
    (frac > 0.72 && frac < 0.78)

let test_float_mean () =
  let r = Rng.create 17L in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float r
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "uniform mean approx 0.5 (got %.3f)" mean)
    true
    (mean > 0.49 && mean < 0.51)

(* The splitmix stream itself, as literals: every trace, table and digest
   in the repository derives from it, so a change to the state layout or
   the draw arithmetic must not move a single bit. Recorded from the
   boxed-int64 implementation that preceded the unboxed state. *)
let test_stream_pinned () =
  let r = Rng.create 0x5EEDL in
  List.iter
    (fun v -> Alcotest.(check int64) "next_int64" v (Rng.next_int64 r))
    [ 716632666546416052L; 6139096880363046005L; 6727192872932819891L;
      8129731167615341197L ];
  List.iter
    (fun v -> Alcotest.(check int) "int 1000" v (Rng.int r 1000))
    [ 173; 282; 92; 676 ];
  List.iter
    (fun v -> Alcotest.(check bool) "bool 0.5" v (Rng.bool r 0.5))
    [ false; true; true; true; true; true; false; false ];
  List.iter
    (fun v -> Alcotest.(check (float 0.)) "float" v (Rng.float r))
    [ 0x1.ebfe0f92a46ap-1; 0x1.273c823ba66e8p-4; 0x1.1f876f89272d4p-2;
      0x1.77d4857ad2909p-1 ];
  List.iter
    (fun v -> Alcotest.(check int) "geometric 4" v (Rng.geometric r 4.0))
    [ 5; 3; 8; 3 ];
  let s = Rng.split r in
  Alcotest.(check int64) "split child" 8550946322628566775L (Rng.next_int64 s);
  Alcotest.(check int64) "split parent" (-7547960608044917704L) (Rng.next_int64 r)

(* a prebuilt table draws exactly what [weighted] draws from the list *)
let test_weights_match_weighted () =
  let choices = [ (0.3, `A); (0., `B); (1.7, `C); (0.25, `D) ] in
  let table = Rng.weights choices in
  let a = Rng.create 21L and b = Rng.create 21L in
  for _ = 1 to 2_000 do
    if Rng.weighted a choices <> Rng.pick b table then
      Alcotest.fail "pick diverged from weighted"
  done

let suite =
  ( "rng",
    [
      Alcotest.test_case "determinism" `Quick test_determinism;
      Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
      Alcotest.test_case "copy vs split" `Quick test_copy_vs_split;
      Alcotest.test_case "bounds" `Quick test_bounds;
      Alcotest.test_case "errors" `Quick test_errors;
      Alcotest.test_case "bool extremes" `Quick test_bool_extremes;
      Alcotest.test_case "geometric distribution" `Quick test_geometric;
      Alcotest.test_case "weighted choice" `Quick test_weighted;
      Alcotest.test_case "uniform float mean" `Quick test_float_mean;
      Alcotest.test_case "stream pinned" `Quick test_stream_pinned;
      Alcotest.test_case "weights table matches weighted" `Quick
        test_weights_match_weighted;
    ] )
