(* The 64-bit splitmix state lives unboxed in 8 bytes, read and written
   with the native-endian int64 primitives: a [{ mutable state : int64 }]
   record would box a fresh int64 on every draw. [step] is inlined into
   each draw, so [bool], [int] and [float] keep the state and the mixed
   output in registers and allocate nothing beyond their own result. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let golden_gamma = 0x9E3779B97F4A7C15L

(* splitmix64 finalizer (Steele, Lea, Flood 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] step t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let next_int64 t = step t

let split t = create (step t)

let copy = Bytes.copy

(* 53 high bits to a double in [0,1) *)
let[@inline] unit_float t =
  Int64.to_float (Int64.shift_right_logical (step t) 11) /. 9007199254740992.0

let float t = unit_float t

let bool t p = unit_float t < p

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* rejection-free modulo is fine for simulation purposes; keep 62 bits so
     the Int64->int conversion stays non-negative on 64-bit OCaml *)
  let v = Int64.to_int (Int64.shift_right_logical (step t) 2) in
  v mod n

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let geometric t mean =
  if mean < 1. then invalid_arg "Rng.geometric: mean must be >= 1";
  if mean = 1. then 1
  else
    let p = 1. /. mean in
    let u = unit_float t in
    let k = 1 + int_of_float (log1p (-.u) /. log1p (-.p)) in
    max 1 k

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

(* Running weight sums in list order: [pick] compares the same partial
   sums, and scales by the same total, that a left fold over the list
   would produce, so a table draws exactly what [weighted] over the
   list draws. *)
type 'a weights = { sums : float array; items : 'a array }

let weights choices =
  let items = Array.of_list (List.map snd choices) in
  let sums = Array.make (Array.length items) 0. in
  List.iteri
    (fun i (w, _) -> sums.(i) <- (if i = 0 then 0. else sums.(i - 1)) +. w)
    choices;
  let n = Array.length items in
  if n = 0 || sums.(n - 1) <= 0. then
    invalid_arg "Rng.weights: non-positive weight sum";
  { sums; items }

let pick t { sums; items } =
  let last = Array.length items - 1 in
  let target = unit_float t *. sums.(last) in
  let i = ref 0 in
  while !i < last && not (sums.(!i) > target) do
    incr i
  done;
  items.(!i)

let weighted t choices =
  if List.fold_left (fun acc (w, _) -> acc +. w) 0. choices <= 0. then
    invalid_arg "Rng.weighted: non-positive weight sum";
  pick t (weights choices)
