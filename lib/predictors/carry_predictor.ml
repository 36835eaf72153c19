type entry = {
  mutable carry_local : bool;
  conf : Confidence.t;
}

type t = {
  table : entry array;
  size : int;
  mask : int;  (* Pc_index.mask size *)
}

type prediction = {
  carry_local : bool;
  confident : bool;
}

let create ?(entries = 256) ?(conf_bits = 2) () =
  if entries <= 0 then invalid_arg "Carry_predictor.create: entries <= 0";
  {
    table =
      Array.init entries (fun _ ->
          { carry_local = false; conf = Confidence.create ~bits:conf_bits () });
    size = entries;
    mask = Pc_index.mask entries;
  }

let[@inline] index t pc = Pc_index.index ~size:t.size ~mask:t.mask pc

let predict t pc =
  let e = t.table.(index t pc) in
  { carry_local = e.carry_local; confident = Confidence.is_high e.conf }

(* Scalar reads of the same entry, for allocation-free hot paths. *)
let predict_carry_local t pc = (t.table.(index t pc)).carry_local

let predict_confident t pc = Confidence.is_high (t.table.(index t pc)).conf

let update t pc ~carry_local =
  let e = t.table.(index t pc) in
  if e.carry_local = carry_local then Confidence.strengthen e.conf
  else begin
    Confidence.weaken e.conf;
    e.carry_local <- carry_local
  end
