(* The HCTB encoder as it was when it wrote through a [Buffer] one byte
   at a time, kept as the reference the sized single-buffer
   [Hc_trace.Codec.encode] must match byte for byte. The walk below is
   the one it was copied from; only the module aliases, the dropped
   tracing span and byte counter, and the checksum differ: this file
   checks with the bytewise CRC-32 below instead of the codec's
   slicing-by-8 one, so the two are tested against each other too. *)

module Uop_soa = Hc_isa.Uop_soa
module Reg = Hc_isa.Reg
module Opcode = Hc_isa.Opcode
module Trace = Hc_trace.Trace
module Codec = Hc_trace.Codec

(* ----- bytewise CRC-32 (IEEE 802.3, reflected, 0xEDB88320) ----- *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s ~pos ~len =
  let c = ref 0xFFFF_FFFF in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFF_FFFF

(* ----- varints ----- *)

let rec add_varint b n =
  if n land lnot 0x7F = 0 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7F)));
    add_varint b (n lsr 7)
  end

let zigzag n = (n lsl 1) lxor (n asr 62)

let add_svarint b n = add_varint b (zigzag n)

let add_string b s =
  add_varint b (String.length s);
  Buffer.add_string b s

(* ----- encode ----- *)

let encode (t : Trace.t) =
  let b = Buffer.create (64 + (16 * Trace.length t)) in
  Buffer.add_string b Codec.magic;
  Buffer.add_char b (Char.chr Codec.schema_version);
  add_string b t.Trace.name;
  add_varint b (Trace.length t);
  add_varint b (List.length Opcode.all);
  List.iter (fun op -> add_string b (Opcode.to_string op)) Opcode.all;
  add_varint b Reg.count;
  for i = 0 to Reg.count - 1 do
    add_string b (Reg.to_string (Reg.of_index i))
  done;
  let soa = Trace.soa t in
  let prev_id = ref (-1) and prev_pc = ref 0 in
  for i = 0 to Uop_soa.length soa - 1 do
    let id = Uop_soa.id soa i and pc = Uop_soa.pc soa i in
    add_svarint b (id - !prev_id - 1);
    prev_id := id;
    add_svarint b (pc - !prev_pc);
    prev_pc := pc;
    add_varint b (Uop_soa.op_index soa i);
    add_varint b (Uop_soa.dst_index soa i + 1);
    Buffer.add_char b (Char.chr (Char.code (Bytes.get soa.Uop_soa.flags i) land 0xF));
    let lo = Uop_soa.src_base soa i and n = Uop_soa.nsrcs soa i in
    add_varint b n;
    for j = lo to lo + n - 1 do
      ( match Uop_soa.src_reg soa j with
      | -1 -> Buffer.add_char b '\000'
      | reg ->
        Buffer.add_char b '\001';
        add_varint b reg );
      add_varint b (Uop_soa.src_val soa j)
    done;
    add_varint b (Uop_soa.result soa i);
    ( match Uop_soa.mem_addr soa i with
    | 0 -> add_varint b 0
    | addr ->
      let base =
        if n >= 2 then Uop_soa.src_val soa lo + Uop_soa.src_val soa (lo + 1)
        else 0
      in
      add_varint b (1 + zigzag (addr - base)) )
  done;
  let payload = Buffer.contents b in
  let hdr = String.length Codec.magic + 1 in
  let crc = crc32 payload ~pos:hdr ~len:(String.length payload - hdr) in
  let out = Buffer.create (String.length payload + 4) in
  Buffer.add_string out payload;
  for i = 0 to 3 do
    Buffer.add_char out (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  Buffer.contents out
