(* Host-speed calibration.

   On a shared virtual host the speed of the same code drifts by tens of
   percent over minutes as other tenants load the shared cores and
   caches, and there are no hardware counters to count work instead of
   time. So a fixed kernel owned by the benchmark runs for about two
   milliseconds every [period] seconds of wall time, from a SIGALRM
   handler, and its duration measures how fast the host is running at
   that moment. A phase's host-normalized time is its own time, with the
   slices it contained taken out, scaled by [reference_s / mean slice
   duration] over those slices: the time the phase would have taken on a
   host where one slice takes [reference_s].

   The kernel is hash-table work — [Hashtbl.hash], bucket walks and
   in-place updates over a table built once — because, of the kernels
   tried (integer chains, unpredictable branches, random and streaming
   array access, allocating and non-allocating hash tables), it tracked
   the simulator's slowdown most closely. The handler allocates nothing,
   so the program's GC counts are the same with calibration on or off. *)

let period = 0.05
let slice_ops = 20_000
let reference_s = 0.002

let table = Hashtbl.create 4096
let () = for k = 0 to 4095 do Hashtbl.add table k k done

(* Running totals of the slices' wall and CPU seconds, and the end time
   and duration of the most recent slices; float arrays, so the handler's
   updates allocate nothing. *)
let totals = [| 0.; 0. |]
let capacity = 1 lsl 16
let slice_end = Array.make capacity 0.
let slice_len = Array.make capacity 0.
let slices = ref 0
let busy = ref false

let slice () =
  if not !busy then begin
    busy := true;
    let w0 = Unix.gettimeofday () and c0 = Sys.time () in
    for i = 1 to slice_ops do
      let k = (i * 7919) land 4095 in
      Hashtbl.replace table k (Hashtbl.find table k + i)
    done;
    let w1 = Unix.gettimeofday () in
    totals.(0) <- totals.(0) +. (w1 -. w0);
    totals.(1) <- totals.(1) +. (Sys.time () -. c0);
    slice_end.(!slices land (capacity - 1)) <- w1;
    slice_len.(!slices land (capacity - 1)) <- w1 -. w0;
    incr slices;
    busy := false
  end

let start () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> slice ()));
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = period; it_value = period })

(* A point in time: wall and process CPU clocks and the slice totals. *)
type mark = { wall : float; cpu : float; slice_wall : float; slice_cpu : float; n : int }

let mark () =
  { wall = Unix.gettimeofday (); cpu = Sys.time (); slice_wall = totals.(0);
    slice_cpu = totals.(1); n = !slices }

let slices_between m0 m1 = m1.n - m0.n

(* Wall and CPU seconds between two marks with the slices taken out. *)
let own_wall m0 m1 = m1.wall -. m0.wall -. (m1.slice_wall -. m0.slice_wall)
let own_cpu m0 m1 = m1.cpu -. m0.cpu -. (m1.slice_cpu -. m0.slice_cpu)

(* [reference_s / mean slice time] over the slices between two marks, by
   the wall or the CPU clock (CPU time leaves out hypervisor steal, so it
   is scaled by the slices' CPU time). A phase too short to hold a slice
   takes the whole run's factor. *)
let ratio n total = if n > 0 then reference_s *. float_of_int n /. total else 1.

let wall_factor m0 m1 =
  if slices_between m0 m1 > 0 then ratio (slices_between m0 m1) (m1.slice_wall -. m0.slice_wall)
  else ratio !slices totals.(0)

let cpu_factor m0 m1 =
  if slices_between m0 m1 > 0 then ratio (slices_between m0 m1) (m1.slice_cpu -. m0.slice_cpu)
  else ratio !slices totals.(1)

(* The wall factor over the slices that ended within [window] seconds of
   an interval: how a cell shorter than a pass is scaled, by the host
   speed around it rather than over the whole pass. *)
let window = 0.25

let around m0 m1 =
  let lo = m0.wall -. window and hi = m1.wall +. window in
  let n = ref 0 and sum = ref 0. and i = ref (!slices - 1) in
  while !i >= max 0 (!slices - capacity) && slice_end.(!i land (capacity - 1)) >= lo do
    let j = !i land (capacity - 1) in
    if slice_end.(j) <= hi then begin
      incr n;
      sum := !sum +. slice_len.(j)
    end;
    decr i
  done;
  if !n > 0 then ratio !n !sum else ratio !slices totals.(0)
