type t = {
  table : bool array;
  size : int;
  mask : int;  (* Pc_index.mask size *)
}

let create ?(entries = 256) () =
  if entries <= 0 then invalid_arg "Copy_predictor.create: entries <= 0";
  { table = Array.make entries false; size = entries;
    mask = Pc_index.mask entries }

let[@inline] index t pc = Pc_index.index ~size:t.size ~mask:t.mask pc

let predict t pc = t.table.(index t pc)

let update t pc ~copied = t.table.(index t pc) <- copied
