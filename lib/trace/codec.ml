module Uop = Hc_isa.Uop
module Uop_soa = Hc_isa.Uop_soa
module Reg = Hc_isa.Reg
module Opcode = Hc_isa.Opcode

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let schema_version = 1

let magic = "HCTB"

let is_binary s =
  String.length s >= String.length magic
  && String.sub s 0 (String.length magic) = magic

(* ----- name tables ----- *)

(* This module's tables are built at initialisation, not lazily: trace
   loads run on several domains at once, and a [Lazy.t] forced from two
   domains concurrently raises [CamlinternalLazy.Undefined]. *)

let reg_names =
  let h = Hashtbl.create (2 * Reg.count) in
  for i = 0 to Reg.count - 1 do
    let r = Reg.of_index i in
    Hashtbl.replace h (Reg.to_string r) r
  done;
  h

let reg_of_name n = Hashtbl.find_opt reg_names n

let op_names =
  let h = Hashtbl.create 64 in
  List.iter (fun op -> Hashtbl.replace h (Opcode.to_string op) op) Opcode.all;
  h

let op_of_name n = Hashtbl.find_opt op_names n

(* ----- CRC-32 (IEEE 802.3, reflected, 0xEDB88320) ----- *)

(* Slicing-by-8: tables.(k*256+i) is the register after byte i and then
   k zero bytes, so one step folds 8 bytes with 8 independent lookups
   instead of 8 dependent shift-and-lookup rounds. The CRC pass touches
   every byte of every trace the cache writes and of every one it
   reloads; [encode] and [decode] share this one table. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xFF) lxor (prev lsr 8)
    done
  done;
  t

let crc32_bytes s ~pos ~len =
  let tbl = crc_tables in
  let c = ref 0xFFFF_FFFF in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo =
      Int32.to_int (Bytes.get_int32_le s !i) land 0xFFFF_FFFF lxor !c
    in
    let hi = Int32.to_int (Bytes.get_int32_le s (!i + 4)) land 0xFFFF_FFFF in
    c :=
      Array.unsafe_get tbl (1792 + (lo land 0xFF))
      lxor Array.unsafe_get tbl (1536 + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get tbl (1280 + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get tbl (1024 + (lo lsr 24))
      lxor Array.unsafe_get tbl (768 + (hi land 0xFF))
      lxor Array.unsafe_get tbl (512 + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get tbl (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get tbl (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c :=
      Array.unsafe_get tbl ((!c lxor Char.code (Bytes.get s !i)) land 0xFF)
      lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFF_FFFF

let crc32 s ~pos ~len = crc32_bytes (Bytes.unsafe_of_string s) ~pos ~len

(* ----- varints ----- *)

(* LEB128 on non-negative ints; signed deltas go through zigzag so small
   magnitudes of either sign stay one byte. [encode] sizes its output
   with [varint_size], then writes it with [put_varint], which returns
   the position after the last byte written. *)

let rec long_varint_size n =
  if n land lnot 0x7F = 0 then 1 else 1 + long_varint_size (n lsr 7)

(* below 2^35 (every 32-bit value) the size is a sum of comparisons,
   with no branch on the value's magnitude to mispredict; [encode] runs
   about 15 % faster with it than with [long_varint_size] alone *)
let varint_size n =
  if n lsr 35 = 0 then
    1 + Bool.to_int (n > 0x7F) + Bool.to_int (n > 0x3FFF)
    + Bool.to_int (n > 0x1F_FFFF) + Bool.to_int (n > 0xFFF_FFFF)
  else long_varint_size n

let rec put_varint b pos n =
  if n land lnot 0x7F = 0 then begin
    Bytes.set b pos (Char.unsafe_chr n);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.unsafe_chr (0x80 lor (n land 0x7F)));
    put_varint b (pos + 1) (n lsr 7)
  end

let zigzag n = (n lsl 1) lxor (n asr 62)

let unzigzag n = (n lsr 1) lxor (- (n land 1))

let string_size s = varint_size (String.length s) + String.length s

let put_string b pos s =
  let pos = put_varint b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* ----- encode ----- *)

let obs_bytes name n =
  Hc_obs.Registry.with_ambient (fun r ->
      Hc_obs.Registry.add
        (Hc_obs.Registry.counter r ~help:"Binary trace codec bytes moved" name)
        n)

(* The header's name tables: the full enum vocabularies in enum order,
   so a table index is the enum index. They are the same in every file
   a build writes, so they are encoded once. *)
let name_tables =
  let ops = List.map Opcode.to_string Opcode.all in
  let regs = List.init Reg.count (fun i -> Reg.to_string (Reg.of_index i)) in
  let table_size l =
    List.fold_left
      (fun n s -> n + string_size s)
      (varint_size (List.length l)) l
  in
  let b = Bytes.create (table_size ops + table_size regs) in
  let put_table pos l =
    List.fold_left (put_string b) (put_varint b pos (List.length l)) l
  in
  ignore (put_table (put_table 0 ops) regs : int);
  Bytes.unsafe_to_string b

(* Every opcode index and every register index + 1 is below 0x80, so
   each is one varint byte; [body_size] counts them so. *)
let () = assert (Opcode.count <= 0x80 && Reg.count < 0x80)

(* mem_addr is base + offset of the first two source values for every
   well-formed memory uop (lint E107), so it delta-codes against that sum
   to one byte; 0 (non-memory) keeps its own code so it never pays for
   the full-magnitude delta. [lo] and [n] are uop [i]'s operand window. *)
let mem_code soa i ~lo ~n =
  match Uop_soa.mem_addr soa i with
  | 0 -> 0
  | addr ->
    let base =
      if n >= 2 then Uop_soa.src_val soa lo + Uop_soa.src_val soa (lo + 1)
      else 0
    in
    1 + zigzag (addr - base)

(* The body walks the packed columns directly: the column contents are
   already the wire indices (the name tables are in enum order), and the
   packed flag byte is the wire flag byte, so encoding never forces the
   trace's record view. [body_size] counts, field by field, the bytes
   [put_body] writes; it counts the operands in a second, flat loop over
   the operand columns. *)
let body_size soa =
  let len = Uop_soa.length soa in
  let size = ref 0 and prev_id = ref (-1) and prev_pc = ref 0 in
  for i = 0 to len - 1 do
    let id = Uop_soa.id soa i and pc = Uop_soa.pc soa i in
    let lo = Uop_soa.src_base soa i and n = Uop_soa.nsrcs soa i in
    size :=
      !size
      + varint_size (zigzag (id - !prev_id - 1))
      + varint_size (zigzag (pc - !prev_pc))
      + 3 (* opcode, destination and flag bytes *)
      + varint_size n
      + varint_size (Uop_soa.result soa i)
      + varint_size (mem_code soa i ~lo ~n);
    prev_id := id;
    prev_pc := pc
  done;
  (* every operand: a tag byte, a register byte for a register operand,
     the value *)
  for j = 0 to Uop_soa.src_base soa len - 1 do
    size :=
      !size + 1
      + Bool.to_int (Uop_soa.src_reg soa j >= 0)
      + varint_size (Uop_soa.src_val soa j)
  done;
  !size

let put_body b pos soa =
  let pos = ref pos and prev_id = ref (-1) and prev_pc = ref 0 in
  for i = 0 to Uop_soa.length soa - 1 do
    let id = Uop_soa.id soa i and pc = Uop_soa.pc soa i in
    let lo = Uop_soa.src_base soa i and n = Uop_soa.nsrcs soa i in
    let p = put_varint b !pos (zigzag (id - !prev_id - 1)) in
    let p = put_varint b p (zigzag (pc - !prev_pc)) in
    let p = put_varint b p (Uop_soa.op_index soa i) in
    let p = put_varint b p (Uop_soa.dst_index soa i + 1) in
    let flags = Char.code (Bytes.unsafe_get soa.Uop_soa.flags i) in
    Bytes.set b p (Char.unsafe_chr (flags land 0xF));
    let p = ref (put_varint b (p + 1) n) in
    prev_id := id;
    prev_pc := pc;
    for j = lo to lo + n - 1 do
      ( match Uop_soa.src_reg soa j with
      | -1 ->
        Bytes.set b !p '\000';
        incr p
      | reg ->
        Bytes.set b !p '\001';
        p := put_varint b (!p + 1) reg );
      p := put_varint b !p (Uop_soa.src_val soa j)
    done;
    let p = put_varint b !p (Uop_soa.result soa i) in
    pos := put_varint b p (mem_code soa i ~lo ~n)
  done;
  !pos

(* One pass sizes the file exactly, a second writes header, body and
   CRC trailer into that one buffer, which becomes the result without a
   copy. *)
let encode (t : Trace.t) =
  Hc_obs.Span.with_span "encode" ~meta:[ ("benchmark", t.Trace.name) ]
  @@ fun () ->
  let soa = Trace.soa t in
  let count = Uop_soa.length soa in
  let hdr = String.length magic + 1 in
  let body_at =
    hdr + string_size t.Trace.name + varint_size count
    + String.length name_tables
  in
  let total = body_at + body_size soa + 4 in
  let b = Bytes.create total in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set b (String.length magic) (Char.chr schema_version);
  let pos = put_string b hdr t.Trace.name in
  let pos = put_varint b pos count in
  Bytes.blit_string name_tables 0 b pos (String.length name_tables);
  let pos = put_body b body_at soa in
  assert (pos = total - 4);
  let crc = crc32_bytes b ~pos:hdr ~len:(pos - hdr) in
  Bytes.set_int32_le b pos (Int32.of_int crc);
  obs_bytes "hc_codec_encoded_bytes_total" total;
  Bytes.unsafe_to_string b

(* ----- decode ----- *)

type reader = { s : string; mutable pos : int; limit : int }

let read_byte r =
  if r.pos >= r.limit then corrupt "truncated at byte %d" r.pos;
  let c = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  c

let rec read_varint_at r acc shift =
  if shift > 62 then corrupt "varint overflow at byte %d" r.pos;
  let byte = read_byte r in
  let acc = acc lor ((byte land 0x7F) lsl shift) in
  if byte land 0x80 = 0 then acc else read_varint_at r acc (shift + 7)

let read_varint r = read_varint_at r 0 0

let read_svarint r = unzigzag (read_varint r)

(* A count read off the wire, bounded by what the remaining bytes could
   encode at [min_bytes] per item — checked before anything is allocated,
   so a corrupt count can neither exhaust memory nor reach [Array.make]
   out of range. *)
let read_count r ~what ~min_bytes =
  let n = read_varint r in
  if n < 0 || n > (r.limit - r.pos) / min_bytes then
    corrupt "implausible %s %d at byte %d (%d bytes left)" what n r.pos
      (r.limit - r.pos);
  n

let read_string r =
  let len = read_varint r in
  if len < 0 || len > r.limit - r.pos then
    corrupt "truncated string at byte %d" r.pos;
  let s = String.sub r.s r.pos len in
  r.pos <- r.pos + len;
  s

(* the most operands one uop may carry on the wire; a larger count is
   a corrupt file *)
let max_operands = 16

let decode ?profile s =
  Hc_obs.Span.with_span "decode"
  @@ fun () ->
  obs_bytes "hc_codec_decoded_bytes_total" (String.length s);
  let profile =
    match profile with Some p -> p | None -> List.hd Profile.spec_int
  in
  let total = String.length s in
  let hdr = String.length magic + 1 in
  if total < hdr + 4 then corrupt "short file (%d bytes)" total;
  if not (is_binary s) then corrupt "bad magic (not a binary trace)";
  let schema = Char.code s.[String.length magic] in
  if schema <> schema_version then
    corrupt "unsupported schema %d (this build reads %d)" schema schema_version;
  let stored =
    Char.code s.[total - 4]
    lor (Char.code s.[total - 3] lsl 8)
    lor (Char.code s.[total - 2] lsl 16)
    lor (Char.code s.[total - 1] lsl 24)
  in
  let actual = crc32 s ~pos:hdr ~len:(total - hdr - 4) in
  if stored <> actual then
    corrupt "crc mismatch (stored 0x%08X, computed 0x%08X): truncated or \
             bit-flipped file"
      stored actual;
  let r = { s; pos = hdr; limit = total - 4 } in
  let name = read_string r in
  (* every uop takes at least 8 bytes: id, pc, opcode, destination, flag
     byte, operand count, result and address codes; every table name at
     least its length byte *)
  let count = read_count r ~what:"uop count" ~min_bytes:8 in
  (* the header tables map wire indices to this build's dense enum
     indices — the columns store enum indices directly, so the rest of
     decode never touches an [Opcode.t] or [Reg.t] value *)
  let nops = read_count r ~what:"opcode table size" ~min_bytes:1 in
  let ops =
    Array.init nops (fun _ ->
        let n = read_string r in
        match op_of_name n with
        | Some op -> Opcode.to_index op
        | None -> corrupt "unknown opcode %S in header table" n)
  in
  let nregs = read_count r ~what:"register table size" ~min_bytes:1 in
  let regs =
    Array.init nregs (fun _ ->
        let n = read_string r in
        match reg_of_name n with
        | Some reg -> Reg.to_index reg
        | None -> corrupt "unknown register %S in header table" n)
  in
  let op_at i =
    if i < 0 || i >= nops then corrupt "opcode index %d out of table" i;
    Array.unsafe_get ops i
  in
  let reg_at i =
    if i < 0 || i >= nregs then corrupt "register index %d out of table" i;
    Array.unsafe_get regs i
  in
  (* zero-copy materialization: varints land straight in the packed
     columns through a sequential builder — no [Uop.t] record, operand
     list or option is ever constructed on this path *)
  let b = Uop_soa.builder count in
  let prev_id = ref (-1) and prev_pc = ref 0 in
  for _ = 1 to count do
    let id = !prev_id + 1 + read_svarint r in
    prev_id := id;
    let pc = !prev_pc + read_svarint r in
    prev_pc := pc;
    let op = op_at (read_varint r) in
    let dst = match read_varint r with 0 -> -1 | d -> reg_at (d - 1) in
    let flags = read_byte r land 0xF in
    let nsrcs = read_varint r in
    if nsrcs < 0 || nsrcs > max_operands then
      corrupt "implausible operand count %d at uop %d" nsrcs id;
    for _ = 1 to nsrcs do
      match read_byte r with
      | 0 -> Uop_soa.push_src b ~reg:(-1) ~v:(read_varint r)
      | 1 ->
        let reg = reg_at (read_varint r) in
        Uop_soa.push_src b ~reg ~v:(read_varint r)
      | t -> corrupt "bad operand tag %d at uop %d" t id
    done;
    let result = read_varint r in
    let mem_addr =
      match read_varint r with
      | 0 -> 0
      | m ->
        (* E107 invariant: reconstruct against base + offset (the first
           two already-pushed source values) exactly as encoded *)
        let base =
          if Uop_soa.pending_nsrcs b >= 2 then
            Uop_soa.pending_src_val b 0 + Uop_soa.pending_src_val b 1
          else 0
        in
        base + unzigzag (m - 1)
    in
    Uop_soa.close_uop b ~id ~pc ~op ~dst ~result ~mem_addr ~flags
  done;
  if r.pos <> r.limit then
    corrupt "%d trailing bytes after uop %d" (r.limit - r.pos) !prev_id;
  Trace.of_soa ~name ~profile (Uop_soa.build b)

let save (t : Trace.t) path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode t))

let load ?profile path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  decode ?profile s
