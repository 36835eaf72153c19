type cluster = Wide | Narrow

let cluster_to_string = function Wide -> "wide" | Narrow -> "narrow"

let pp_cluster ppf c = Format.pp_print_string ppf (cluster_to_string c)

type ir_mode = Ir_off | Ir_all | Ir_no_dest

type scheme = {
  helper : bool;
  s888 : bool;
  br : bool;
  lr : bool;
  cr : bool;
  cp : bool;
  ir : ir_mode;
}

let monolithic =
  { helper = false; s888 = false; br = false; lr = false; cr = false;
    cp = false; ir = Ir_off }

let s888_only = { monolithic with helper = true; s888 = true }

let scheme_stack =
  [
    ("8_8_8", s888_only);
    ("+BR", { s888_only with br = true });
    ("+LR", { s888_only with br = true; lr = true });
    ("+CR", { s888_only with br = true; lr = true; cr = true });
    ("+CP", { s888_only with br = true; lr = true; cr = true; cp = true });
    ("+IR", { s888_only with br = true; lr = true; cr = true; cp = true; ir = Ir_all });
    ("+IR(nodest)",
     { s888_only with br = true; lr = true; cr = true; cp = true; ir = Ir_no_dest });
  ]

let find_scheme name =
  if name = "baseline" then monolithic
  else
    match List.assoc_opt name scheme_stack with
    | Some s -> s
    | None -> raise Not_found

type memory_model = Mem_trace_flags | Mem_cache_sim

type branch_model = Br_trace_flags | Br_gshare

type frontend_model = Fe_ideal | Fe_trace_cache

type t = {
  decode_width : int;
  commit_width : int;
  rob_size : int;
  iq_size : int;
  issue_width : int;
  mob_size : int;
  dl0_latency : int;
  ul1_latency : int;
  mem_latency : int;
  branch_penalty : int;
  width_flush_penalty : int;
  copy_latency : int;
  wpred_entries : int;
  conf_bits : int;
  confidence_gate : bool;
  narrow_bits : int;
  memory_model : memory_model;
  branch_model : branch_model;
  frontend_model : frontend_model;
  wide_regs : int;
  narrow_regs : int;
  helper_fast_clock : bool;
  replicated_regfile : bool;
  replay_recovery : bool;
  scheme : scheme;
}

let default =
  {
    decode_width = 6;
    commit_width = 6;
    rob_size = 128;
    iq_size = 32;
    issue_width = 3;
    mob_size = 48;
    dl0_latency = 3;
    ul1_latency = 13;
    mem_latency = 450;
    branch_penalty = 12;
    width_flush_penalty = 4;
    copy_latency = 1;
    wpred_entries = 256;
    conf_bits = 2;
    confidence_gate = true;
    narrow_bits = 8;
    memory_model = Mem_trace_flags;
    branch_model = Br_trace_flags;
    frontend_model = Fe_ideal;
    wide_regs = 128;
    narrow_regs = 128;
    helper_fast_clock = true;
    replicated_regfile = false;
    replay_recovery = false;
    scheme = List.assoc "+IR" scheme_stack;
  }

let baseline = { default with scheme = monolithic }

(* The comparator of section 4: Gonzalez, Cristal, Pericas, Valero,
   Veidenbaum, "An Asymmetric Clustered Processor based on Value Content"
   (ICS 2005). One cluster of a homogeneous pair is shrunk to 20 bits at
   the same clock; the register file is replicated across clusters (no
   copy uops), width prediction is history-based without a confidence
   gate, and mispredicted-narrow instructions replay instead of flushing. *)
let ics05 =
  {
    default with
    scheme =
      { helper = true; s888 = true; br = true; lr = false; cr = false;
        cp = false; ir = Ir_off };
    narrow_bits = 20;
    helper_fast_clock = false;
    confidence_gate = false;
    replicated_regfile = true;
    replay_recovery = true;
  }

let with_scheme t scheme = { t with scheme }

let validate t =
  let positive =
    [ ("decode_width", t.decode_width); ("commit_width", t.commit_width);
      ("rob_size", t.rob_size); ("iq_size", t.iq_size);
      ("issue_width", t.issue_width); ("mob_size", t.mob_size);
      ("dl0_latency", t.dl0_latency); ("ul1_latency", t.ul1_latency);
      ("mem_latency", t.mem_latency); ("copy_latency", t.copy_latency);
      ("wpred_entries", t.wpred_entries); ("conf_bits", t.conf_bits) ]
  in
  match List.find_opt (fun (_, v) -> v <= 0) positive with
  | Some (name, v) -> Error (Printf.sprintf "%s = %d must be positive" name v)
  | None ->
    if t.branch_penalty < 0 || t.width_flush_penalty < 0 then
      Error "penalties must be non-negative"
    else if t.narrow_bits < 1 || t.narrow_bits > 31 then
      Error "narrow_bits out of [1,31]"
    else if t.wide_regs <= 0 || t.narrow_regs <= 0 then
      Error "register files must be positive"
    else if t.ul1_latency <= t.dl0_latency || t.mem_latency <= t.ul1_latency then
      Error "memory hierarchy latencies must increase"
    else Ok ()
