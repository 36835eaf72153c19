(* Tests for machine configuration and scheme selection. *)

module Config = Hc_sim.Config

let ok name cfg =
  match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

let err name cfg =
  match Config.validate cfg with
  | Ok () -> Alcotest.failf "%s: expected rejection" name
  | Error _ -> ()

let test_default_valid () =
  ok "default" Config.default;
  ok "baseline" Config.baseline

let test_validate_rejects () =
  err "zero issue" { Config.default with Config.issue_width = 0 };
  err "negative penalty" { Config.default with Config.branch_penalty = -1 };
  err "inverted hierarchy" { Config.default with Config.ul1_latency = 1 };
  err "memory faster than ul1" { Config.default with Config.mem_latency = 5 }

let test_scheme_stack () =
  Alcotest.(check (list string)) "paper order"
    [ "8_8_8"; "+BR"; "+LR"; "+CR"; "+CP"; "+IR"; "+IR(nodest)" ]
    (List.map fst Config.scheme_stack);
  (* each step includes the previous techniques *)
  let implies a b = (not a) || b in
  let rec pairwise = function
    | (na, a) :: ((_, b) :: _ as rest) ->
      Alcotest.(check bool) (na ^ " cumulative s888") true
        (implies a.Config.s888 b.Config.s888);
      Alcotest.(check bool) (na ^ " cumulative br") true
        (implies a.Config.br b.Config.br);
      Alcotest.(check bool) (na ^ " cumulative lr") true
        (implies a.Config.lr b.Config.lr);
      Alcotest.(check bool) (na ^ " cumulative cr") true
        (implies a.Config.cr b.Config.cr);
      pairwise rest
    | [ _ ] | [] -> ()
  in
  pairwise Config.scheme_stack

let test_monolithic () =
  Alcotest.(check bool) "no helper" false Config.monolithic.Config.helper;
  Alcotest.(check bool) "baseline config uses it" false
    Config.baseline.Config.scheme.Config.helper

let test_find_scheme () =
  Alcotest.(check bool) "baseline" true
    (Config.find_scheme "baseline" = Config.monolithic);
  Alcotest.(check bool) "+IR has splitting" true
    ((Config.find_scheme "+IR").Config.ir = Config.Ir_all);
  Alcotest.(check bool) "nodest variant" true
    ((Config.find_scheme "+IR(nodest)").Config.ir = Config.Ir_no_dest);
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Config.find_scheme "nonesuch"))

let test_with_scheme () =
  let cfg = Config.with_scheme Config.default Config.monolithic in
  Alcotest.(check bool) "scheme replaced" false cfg.Config.scheme.Config.helper;
  Alcotest.(check int) "machine untouched" Config.default.Config.iq_size
    cfg.Config.iq_size

let test_table1_parameters () =
  (* the Table-1 machine *)
  let c = Config.default in
  Alcotest.(check int) "32-entry scheduler" 32 c.Config.iq_size;
  Alcotest.(check int) "3-issue" 3 c.Config.issue_width;
  Alcotest.(check int) "commit 6" 6 c.Config.commit_width;
  Alcotest.(check int) "DL0 3 cycles" 3 c.Config.dl0_latency;
  Alcotest.(check int) "UL1 13 cycles" 13 c.Config.ul1_latency;
  Alcotest.(check int) "memory 450 cycles" 450 c.Config.mem_latency;
  Alcotest.(check int) "256-entry width predictor" 256 c.Config.wpred_entries;
  Alcotest.(check int) "2-bit confidence" 2 c.Config.conf_bits

let suite =
  ( "config",
    [
      Alcotest.test_case "defaults valid" `Quick test_default_valid;
      Alcotest.test_case "validation rejects" `Quick test_validate_rejects;
      Alcotest.test_case "scheme stack" `Quick test_scheme_stack;
      Alcotest.test_case "monolithic" `Quick test_monolithic;
      Alcotest.test_case "find scheme" `Quick test_find_scheme;
      Alcotest.test_case "with_scheme" `Quick test_with_scheme;
      Alcotest.test_case "Table 1 parameters" `Quick test_table1_parameters;
    ] )
