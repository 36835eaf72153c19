type entry = {
  mutable last_narrow : bool;
  conf : Confidence.t;
}

type t = {
  table : entry array;
  size : int;
  mask : int;  (* Pc_index.mask size *)
}

type prediction = {
  narrow : bool;
  confident : bool;
}

let create ?(entries = 256) ?(conf_bits = 2) () =
  if entries <= 0 then invalid_arg "Width_predictor.create: entries <= 0";
  {
    table =
      Array.init entries (fun _ ->
          { last_narrow = false; conf = Confidence.create ~bits:conf_bits () });
    size = entries;
    mask = Pc_index.mask entries;
  }

let entries t = t.size

let[@inline] index t pc = Pc_index.index ~size:t.size ~mask:t.mask pc

let predict t pc =
  let e = t.table.(index t pc) in
  { narrow = e.last_narrow; confident = Confidence.is_high e.conf }

(* Scalar reads of the same entry, for hot paths that must not allocate
   the prediction record. *)
let predict_narrow t pc = (t.table.(index t pc)).last_narrow

let predict_confident t pc = Confidence.is_high (t.table.(index t pc)).conf

let update t pc ~narrow =
  let e = t.table.(index t pc) in
  if e.last_narrow = narrow then Confidence.strengthen e.conf
  else begin
    Confidence.weaken e.conf;
    e.last_narrow <- narrow
  end

let accuracy_probe t pc ~narrow = (predict t pc).narrow = narrow
