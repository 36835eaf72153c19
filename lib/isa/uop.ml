type operand =
  | Reg of Reg.t
  | Imm of Value.t

type t = {
  id : int;
  pc : Value.t;
  op : Opcode.t;
  srcs : operand list;
  dst : Reg.t option;
  src_vals : Value.t list;
  result : Value.t;
  mem_addr : Value.t;
  taken : bool;
  branch_mispredicted : bool;
  dl0_miss : bool;
  ul1_miss : bool;
}

let make ~id ~pc ~op ~srcs ~dst ~src_vals ?result ?(mem_addr = 0) ?(taken = false)
    ?(branch_mispredicted = false) ?(dl0_miss = false) ?(ul1_miss = false) () =
  if List.length srcs <> List.length src_vals then
    invalid_arg "Uop.make: srcs and src_vals lengths differ";
  let result =
    match result with
    | Some r -> r
    | None -> ( match Semantics.eval op src_vals with Some r -> r | None -> 0)
  in
  { id; pc; op; srcs; dst; src_vals; result; mem_addr; taken;
    branch_mispredicted; dl0_miss; ul1_miss }

let has_dest u = Option.is_some u.dst

let writes_flags u = Opcode.writes_flags u.op

let pp_operand ppf = function
  | Reg r -> Reg.pp ppf r
  | Imm v -> Value.pp ppf v

let pp ppf u =
  Format.fprintf ppf "@[<h>#%d pc=%a %a" u.id Value.pp u.pc Opcode.pp u.op;
  ( match u.dst with
  | Some d -> Format.fprintf ppf " %a <-" Reg.pp d
  | None -> () );
  List.iter (fun s -> Format.fprintf ppf " %a" pp_operand s) u.srcs;
  Format.fprintf ppf " = %a@]" Value.pp u.result
