(* The entry of a PC-indexed predictor table. PCs step by 4; the low
   bits are dropped before indexing so neighbouring statics do not all
   collide into a quarter of the table. A power-of-two table takes the
   entry with one mask, any other size with [mod]; both give
   [(pc lsr 2) mod size], since [pc lsr 2] is never negative. *)

(* [size - 1] when [size] is a power of two, else -1 *)
let mask size = if size > 0 && size land (size - 1) = 0 then size - 1 else -1

let[@inline] index ~size ~mask pc =
  let h = pc lsr 2 in
  if mask >= 0 then h land mask else h mod size
