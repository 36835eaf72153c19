module Uop = Hc_isa.Uop
module Reg = Hc_isa.Reg
module Opcode = Hc_isa.Opcode

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

let operand_to_string = function
  | Uop.Reg r -> "r:" ^ Reg.to_string r
  | Uop.Imm _ -> "i"

let bool_field b = if b then "1" else "0"

let uop_to_line (u : Uop.t) =
  let srcs =
    String.concat ","
      (List.map2
         (fun src v -> Printf.sprintf "%s:%x" (operand_to_string src) v)
         u.Uop.srcs u.Uop.src_vals)
  in
  Printf.sprintf
    "%d %x %s dst=%s srcs=%s res=%x addr=%x taken=%s misp=%s dl0=%s ul1=%s"
    u.Uop.id u.Uop.pc (Opcode.to_string u.Uop.op)
    (match u.Uop.dst with Some r -> Reg.to_string r | None -> "-")
    srcs u.Uop.result u.Uop.mem_addr (bool_field u.Uop.taken)
    (bool_field u.Uop.branch_mispredicted)
    (bool_field u.Uop.dl0_miss) (bool_field u.Uop.ul1_miss)

let save (t : Trace.t) path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "helper-cluster-trace v1 %s %d\n" t.Trace.name
        (Trace.length t);
      Array.iter (fun u -> output_string oc (uop_to_line u ^ "\n")) (Trace.uops t))

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

let parse_operand part =
  (* "r:<reg>:<hexvalue>" or "i:<hexvalue>" *)
  match String.split_on_char ':' part with
  | [ "r"; reg; v ] ->
    let value = int_of_string ("0x" ^ v) in
    (Uop.Reg (reg_of_string reg), value)
  | [ "i"; v ] ->
    let value = int_of_string ("0x" ^ v) in
    (Uop.Imm value, value)
  | _ -> failwith (Printf.sprintf "malformed operand %S" part)

let uop_of_line line =
  match String.split_on_char ' ' line with
  | [ id; pc; op; dst; srcs; res; addr; taken; misp; dl0; ul1 ] ->
    let field expect s =
      let k, v = split_kv s in
      if k <> expect then failwith (Printf.sprintf "expected %s=, got %s=" expect k);
      v
    in
    let dst = field "dst" dst in
    let srcs = field "srcs" srcs in
    let operands =
      if srcs = "" then []
      else List.map parse_operand (String.split_on_char ',' srcs)
    in
    Uop.make ~id:(int_of_string id)
      ~pc:(int_of_string ("0x" ^ pc))
      ~op:(op_of_string op)
      ~srcs:(List.map fst operands)
      ~dst:(if dst = "-" then None else Some (reg_of_string dst))
      ~src_vals:(List.map snd operands)
      ~result:(int_of_string ("0x" ^ field "res" res))
      ~mem_addr:(int_of_string ("0x" ^ field "addr" addr))
      ~taken:(parse_bool (field "taken" taken))
      ~branch_mispredicted:(parse_bool (field "misp" misp))
      ~dl0_miss:(parse_bool (field "dl0" dl0))
      ~ul1_miss:(parse_bool (field "ul1" ul1))
      ()
  | _ -> failwith "wrong field count"

let load_text ~profile content =
  (* trailing newline yields one final "" entry; lines past the declared
     count are ignored, exactly as the old line-reader did *)
  let lines = Array.of_list (String.split_on_char '\n' content) in
  if Array.length lines = 0 then failwith "bad header (empty file)";
  let header = lines.(0) in
  let name, count =
    match String.split_on_char ' ' header with
    | [ "helper-cluster-trace"; "v1"; name; count ] -> (
      match int_of_string_opt count with
      | Some n when n >= 0 -> (name, n)
      | Some _ | None -> failwith "bad header count")
    | _ -> failwith "bad header (expected helper-cluster-trace v1 ...)"
  in
  (* one line per uop: a count the file cannot hold is refused before
     it sizes an allocation *)
  let last = Array.length lines - 1 in
  let more = if lines.(last) = "" then last - 1 else last in
  if count > more then
    failwith
      (Printf.sprintf "line 1: header declares %d uops, file has %d more lines"
         count more);
  let uops =
    Array.init count (fun i ->
        if i + 1 >= Array.length lines || lines.(i + 1) = "" then
          failwith (Printf.sprintf "truncated at uop %d" i);
        try uop_of_line lines.(i + 1)
        with Failure msg ->
          failwith (Printf.sprintf "line %d: %s" (i + 2) msg))
  in
  Trace.make ~name ~profile uops

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
