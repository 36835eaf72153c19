module Reg = Hc_isa.Reg
module Opcode = Hc_isa.Opcode
module Uop_soa = Hc_isa.Uop_soa

(* Name lookups go through the Hashtbls Codec builds once — the old
   List.assoc pair cost O(registers) per operand token. *)

let reg_of_string name =
  match Codec.reg_of_name name with
  | Some r -> r
  | None -> failwith (Printf.sprintf "unknown register %S" name)

let op_of_string name =
  match Codec.op_of_name name with
  | Some op -> op
  | None -> failwith (Printf.sprintf "unknown opcode %S" name)

let bit_field soa i bit = if Uop_soa.flag soa i bit then "1" else "0"

let reg_name r = Reg.to_string (Reg.of_index r)

let uop_to_line soa i =
  let lo = Uop_soa.src_base soa i in
  let srcs =
    String.concat ","
      (List.init (Uop_soa.nsrcs soa i) (fun k ->
           let v = Uop_soa.src_val soa (lo + k) in
           match Uop_soa.src_reg soa (lo + k) with
           | -1 -> Printf.sprintf "i:%x" v
           | r -> Printf.sprintf "r:%s:%x" (reg_name r) v))
  in
  Printf.sprintf
    "%d %x %s dst=%s srcs=%s res=%x addr=%x taken=%s misp=%s dl0=%s ul1=%s"
    (Uop_soa.id soa i) (Uop_soa.pc soa i)
    (Opcode.to_string (Uop_soa.op soa i))
    (match Uop_soa.dst_index soa i with -1 -> "-" | r -> reg_name r)
    srcs (Uop_soa.result soa i) (Uop_soa.mem_addr soa i)
    (bit_field soa i Uop_soa.flag_taken)
    (bit_field soa i Uop_soa.flag_mispredicted)
    (bit_field soa i Uop_soa.flag_dl0) (bit_field soa i Uop_soa.flag_ul1)

let save (t : Trace.t) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "helper-cluster-trace v1 %s %d\n" t.Trace.name
        (Trace.length t);
      let soa = Trace.soa t in
      for i = 0 to Uop_soa.length soa - 1 do
        output_string oc (uop_to_line soa i ^ "\n")
      done)

let save_binary = Codec.save

let split_kv field =
  match String.index_opt field '=' with
  | Some i ->
    ( String.sub field 0 i,
      String.sub field (i + 1) (String.length field - i - 1) )
  | None -> failwith (Printf.sprintf "expected key=value, got %S" field)

let parse_bool = function
  | "0" -> false
  | "1" -> true
  | s -> failwith (Printf.sprintf "expected 0/1, got %S" s)

(* a number field; a malformed one is reported under its name *)
let number ~field ~prefix ~what s =
  match int_of_string_opt (prefix ^ s) with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: expected a %s number, got %S" field what s)

let hex field s = number ~field ~prefix:"0x" ~what:"hex" s

(* "r:<reg>:<hexvalue>" or "i:<hexvalue>" *)
let push_operand b part =
  match String.split_on_char ':' part with
  | [ "r"; reg; v ] ->
    let v = hex "operand" v in
    Uop_soa.push_src b ~reg:(Reg.to_index (reg_of_string reg)) ~v
  | [ "i"; v ] -> Uop_soa.push_src b ~reg:(-1) ~v:(hex "operand" v)
  | _ -> failwith (Printf.sprintf "malformed operand %S" part)

(* Parse one uop line straight into the builder's columns. *)
let push_line b line =
  match String.split_on_char ' ' line with
  | [ id; pc; op; dst; srcs; res; addr; taken; misp; dl0; ul1 ] ->
    let field expect s =
      let k, v = split_kv s in
      if k <> expect then failwith (Printf.sprintf "expected %s=, got %s=" expect k);
      v
    in
    let flag bit name s = if parse_bool (field name s) then bit else 0 in
    let id = number ~field:"id" ~prefix:"" ~what:"decimal" id in
    let pc = hex "pc" pc in
    let op = Opcode.to_index (op_of_string op) in
    let dst =
      match field "dst" dst with
      | "-" -> -1
      | r -> Reg.to_index (reg_of_string r)
    in
    ( match field "srcs" srcs with
    | "" -> ()
    | srcs -> List.iter (push_operand b) (String.split_on_char ',' srcs) );
    let result = hex "res" (field "res" res) in
    let mem_addr = hex "addr" (field "addr" addr) in
    let flags =
      flag Uop_soa.flag_taken "taken" taken
      lor flag Uop_soa.flag_mispredicted "misp" misp
      lor flag Uop_soa.flag_dl0 "dl0" dl0
      lor flag Uop_soa.flag_ul1 "ul1" ul1
    in
    Uop_soa.close_uop b ~id ~pc ~op ~dst ~result ~mem_addr ~flags
  | _ -> failwith "wrong field count"

(* Every failure names the line it is on, the header being line 1. *)
let load_text ~profile content =
  (* trailing newline yields one final "" entry; lines past the declared
     count are ignored, exactly as the old line-reader did *)
  let lines = Array.of_list (String.split_on_char '\n' content) in
  let name, count =
    match String.split_on_char ' ' lines.(0) with
    | [ "helper-cluster-trace"; "v1"; name; count ] -> (
      match int_of_string_opt count with
      | Some n when n >= 0 -> (name, n)
      | Some _ | None ->
        failwith (Printf.sprintf "line 1: bad header count %S" count))
    | _ -> failwith "line 1: bad header (expected helper-cluster-trace v1 ...)"
  in
  (* one line per uop: a count the file cannot hold is refused before
     it sizes an allocation *)
  let last = Array.length lines - 1 in
  let more = if lines.(last) = "" then last - 1 else last in
  if count > more then
    failwith
      (Printf.sprintf "line 1: header declares %d uops, file has %d more lines"
         count more);
  let b = Uop_soa.builder count in
  for i = 0 to count - 1 do
    let line = lines.(i + 1) in
    if line = "" then
      failwith (Printf.sprintf "line %d: empty line at uop %d" (i + 2) i);
    try push_line b line
    with Failure msg -> failwith (Printf.sprintf "line %d: %s" (i + 2) msg)
  done;
  Trace.of_soa ~name ~profile (Uop_soa.build b)

let load ?profile path =
  let profile =
    match profile with Some p -> p | None -> List.hd Profile.spec_int
  in
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if Codec.is_binary content then Codec.decode ~profile content
  else load_text ~profile content

let roundtrip_equal (a : Trace.t) (b : Trace.t) = Trace.soa a = Trace.soa b
