(* Tests for the functional executor. *)

open Sdiq_isa

let r = Reg.int
let f = Reg.fp

let run_prog build =
  let b = Asm.create () in
  build b;
  let prog = Asm.assemble b ~entry:"main" in
  let st = Exec.create prog in
  let steps = Exec.run st in
  (st, steps)

let test_arith () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 7;
        Asm.li p (r 2) 3;
        Asm.add p (r 3) (r 1) (r 2);
        Asm.sub p (r 4) (r 1) (r 2);
        Asm.mul p (r 5) (r 1) (r 2);
        Asm.div p (r 6) (r 1) (r 2);
        Asm.and_ p (r 7) (r 1) (r 2);
        Asm.or_ p (r 8) (r 1) (r 2);
        Asm.xor p (r 9) (r 1) (r 2);
        Asm.store p Reg.zero (r 3) 0;
        Asm.store p Reg.zero (r 4) 1;
        Asm.store p Reg.zero (r 5) 2;
        Asm.store p Reg.zero (r 6) 3;
        Asm.store p Reg.zero (r 7) 4;
        Asm.store p Reg.zero (r 8) 5;
        Asm.store p Reg.zero (r 9) 6;
        Asm.halt p)
  in
  Alcotest.(check int) "add" 10 (Exec.peek st 0);
  Alcotest.(check int) "sub" 4 (Exec.peek st 1);
  Alcotest.(check int) "mul" 21 (Exec.peek st 2);
  Alcotest.(check int) "div" 2 (Exec.peek st 3);
  Alcotest.(check int) "and" 3 (Exec.peek st 4);
  Alcotest.(check int) "or" 7 (Exec.peek st 5);
  Alcotest.(check int) "xor" 4 (Exec.peek st 6)

let test_div_by_zero_total () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 5;
        Asm.div p (r 2) (r 1) Reg.zero;
        Asm.store p Reg.zero (r 2) 0;
        Asm.halt p)
  in
  Alcotest.(check int) "div by zero yields 0" 0 (Exec.peek st 0)

let test_shifts () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 5;
        Asm.shli p (r 2) (r 1) 3;
        Asm.shri p (r 3) (r 2) 2;
        Asm.store p Reg.zero (r 2) 0;
        Asm.store p Reg.zero (r 3) 1;
        Asm.halt p)
  in
  Alcotest.(check int) "shl" 40 (Exec.peek st 0);
  Alcotest.(check int) "shr" 10 (Exec.peek st 1)

let test_compare_ops () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 4;
        Asm.li p (r 2) 9;
        Asm.slt p (r 3) (r 1) (r 2);
        Asm.sle p (r 4) (r 2) (r 2);
        Asm.seq p (r 5) (r 1) (r 2);
        Asm.sne p (r 6) (r 1) (r 2);
        Asm.slti p (r 7) (r 1) 5;
        Asm.store p Reg.zero (r 3) 0;
        Asm.store p Reg.zero (r 4) 1;
        Asm.store p Reg.zero (r 5) 2;
        Asm.store p Reg.zero (r 6) 3;
        Asm.store p Reg.zero (r 7) 4;
        Asm.halt p)
  in
  Alcotest.(check int) "slt" 1 (Exec.peek st 0);
  Alcotest.(check int) "sle" 1 (Exec.peek st 1);
  Alcotest.(check int) "seq" 0 (Exec.peek st 2);
  Alcotest.(check int) "sne" 1 (Exec.peek st 3);
  Alcotest.(check int) "slti" 1 (Exec.peek st 4)

let test_loop_sum () =
  (* Sum 1..10 = 55 *)
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 10;
        Asm.li p (r 2) 0;
        Asm.label p "loop";
        Asm.add p (r 2) (r 2) (r 1);
        Asm.addi p (r 1) (r 1) (-1);
        Asm.bne p (r 1) Reg.zero "loop";
        Asm.store p Reg.zero (r 2) 0;
        Asm.halt p)
  in
  Alcotest.(check int) "sum 1..10" 55 (Exec.peek st 0)

let test_fib_recursive () =
  (* fib(10) = 55 via recursion with an explicit memory stack. *)
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 10;
        Asm.li p (r 29) 1000; (* stack pointer *)
        Asm.call p "fib";
        Asm.store p Reg.zero (r 2) 0;
        Asm.halt p;
        (* fib: arg in r1, result in r2, stack pointer r29 *)
        let q = Asm.proc b "fib" in
        Asm.slti q (r 3) (r 1) 2;
        Asm.beq q (r 3) Reg.zero "rec";
        Asm.mov q (r 2) (r 1);
        Asm.ret q;
        Asm.label q "rec";
        (* push r1 *)
        Asm.store q (r 29) (r 1) 0;
        Asm.addi q (r 29) (r 29) 1;
        Asm.addi q (r 1) (r 1) (-1);
        Asm.call q "fib";
        (* pop r1, push fib(n-1) *)
        Asm.addi q (r 29) (r 29) (-1);
        Asm.load q (r 1) (r 29) 0;
        Asm.store q (r 29) (r 2) 0;
        Asm.addi q (r 29) (r 29) 1;
        Asm.addi q (r 1) (r 1) (-2);
        Asm.call q "fib";
        Asm.addi q (r 29) (r 29) (-1);
        Asm.load q (r 3) (r 29) 0;
        Asm.add q (r 2) (r 2) (r 3);
        Asm.ret q)
  in
  Alcotest.(check int) "fib 10" 55 (Exec.peek st 0)

let test_memory () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 500;
        Asm.li p (r 2) 42;
        Asm.store p (r 1) (r 2) 8;
        Asm.load p (r 3) (r 1) 8;
        Asm.load p (r 4) (r 1) 999; (* unwritten: 0 *)
        Asm.store p Reg.zero (r 3) 0;
        Asm.store p Reg.zero (r 4) 1;
        Asm.halt p)
  in
  Alcotest.(check int) "store/load" 42 (Exec.peek st 0);
  Alcotest.(check int) "unwritten is 0" 0 (Exec.peek st 1)

let test_fp_ops () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.fli p (f 1) 1.5;
        Asm.fli p (f 2) 2.5;
        Asm.fadd p (f 3) (f 1) (f 2);
        Asm.fmul p (f 4) (f 1) (f 2);
        Asm.ftoi p (r 1) (f 3);
        Asm.store p Reg.zero (r 1) 0;
        Asm.fstore p Reg.zero (f 4) 1;
        Asm.halt p)
  in
  Alcotest.(check int) "fadd then ftoi" 4 (Exec.peek st 0);
  Alcotest.(check (float 1e-9)) "fmul" 3.75 (Exec.fpeek st 1)

let test_branch_outcomes_in_dyn () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.li p (r 1) 1;
  Asm.beq p (r 1) Reg.zero "skip"; (* not taken *)
  Asm.jmp p "end"; (* taken *)
  Asm.label p "skip";
  Asm.nop p;
  Asm.label p "end";
  Asm.halt p;
  let prog = Asm.assemble b ~entry:"main" in
  let st = Exec.create prog in
  let d1 = Exec.step st in
  let d2 = Exec.step st in
  let d3 = Exec.step st in
  (match d2 with
  | Some d -> Alcotest.(check bool) "beq not taken" false d.Exec.taken
  | None -> Alcotest.fail "missing dyn");
  match d3 with
  | Some d ->
    Alcotest.(check bool) "jmp taken" true d.Exec.taken;
    Alcotest.(check int) "jmp next pc" 4 d.Exec.next_pc;
    ignore d1
  | None -> Alcotest.fail "missing dyn"

let test_halt_stops () =
  let st, steps =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.halt p;
        Asm.li p (r 1) 99;
        Asm.store p Reg.zero (r 1) 0)
  in
  Alcotest.(check int) "one step" 1 steps;
  Alcotest.(check int) "code after halt not executed" 0 (Exec.peek st 0)

let test_ret_from_entry_halts () =
  let _, steps =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.nop p;
        Asm.ret p)
  in
  Alcotest.(check int) "nop + ret" 2 steps

let test_iqset_is_semantic_nop () =
  let st, _ =
    run_prog (fun b ->
        let p = Asm.proc b "main" in
        Asm.li p (r 1) 5;
        Asm.iqset p 12;
        Asm.store p Reg.zero (r 1) 0;
        Asm.halt p)
  in
  Alcotest.(check int) "iqset does not change state" 5 (Exec.peek st 0)

let test_max_steps_bound () =
  let b = Asm.create () in
  let p = Asm.proc b "main" in
  Asm.label p "spin";
  Asm.jmp p "spin";
  let prog = Asm.assemble b ~entry:"main" in
  let st = Exec.create prog in
  let steps = Exec.run ~max_steps:100 st in
  Alcotest.(check int) "bounded" 100 steps

(* The wrong-path overlay: the datapath of [Exec.execute] over copied
   registers and private stores, with loads falling through to the base
   for every address the overlay never wrote. *)
let test_overlay () =
  let b = Asm.create () in
  Asm.halt (Asm.proc b "main");
  let base = Exec.create (Asm.assemble b ~entry:"main") in
  Exec.poke base 100 7;
  Exec.fpoke base 200 2.5;
  base.Exec.iregs.(1) <- 100;
  base.Exec.iregs.(2) <- 11;
  base.Exec.fregs.(1) <- 1.5;
  let ov = Exec.overlay base in
  Exec.restart ov ~pc:0 ~steps:5;
  let exec i = Exec.execute ov (Decoded.decode i) in
  let mk = Instr.make in
  exec (mk ~dst:(r 3) ~src1:(r 1) ~imm:0 Opcode.Load);
  Alcotest.(check int) "int load falls through" 7 ov.Exec.iregs.(3);
  Alcotest.(check int) "load address" 100 ov.Exec.d_addr;
  exec (mk ~dst:(f 2) ~src1:(r 1) ~imm:100 Opcode.Fload);
  Alcotest.(check (float 0.)) "fp load falls through" 2.5 ov.Exec.fregs.(2);
  exec (mk ~src1:(r 1) ~src2:(r 2) ~imm:0 Opcode.Store);
  exec (mk ~src1:(r 1) ~src2:(f 1) ~imm:100 Opcode.Fstore);
  exec (mk ~dst:(r 4) ~src1:(r 1) ~imm:0 Opcode.Load);
  Alcotest.(check int) "overlay reads its own store" 11 ov.Exec.iregs.(4);
  Alcotest.(check int) "overlay peek" 11 (Exec.peek ov 100);
  Alcotest.(check (float 0.)) "overlay fpeek" 1.5 (Exec.fpeek ov 200);
  Alcotest.(check int) "base int memory untouched" 7 (Exec.peek base 100);
  Alcotest.(check (float 0.)) "base fp memory untouched" 2.5
    (Exec.fpeek base 200);
  Alcotest.(check int) "base registers untouched" 0 base.Exec.iregs.(3);
  exec (mk ~dst:Reg.zero ~imm:9 Opcode.Li);
  Alcotest.(check int) "r0 stays 0" 0 ov.Exec.iregs.(0);
  exec (mk ~dst:(r 5) ~src1:Reg.zero ~imm:3 Opcode.Addi);
  Alcotest.(check int) "r0 reads 0" 3 ov.Exec.iregs.(5);
  base.Exec.iregs.(2) <- 12;
  Exec.restart ov ~pc:3 ~steps:9;
  Alcotest.(check int) "restart pc" 3 ov.Exec.pc;
  Alcotest.(check int) "restart steps" 9 ov.Exec.steps;
  Alcotest.(check int) "restart forgets int stores" 7 (Exec.peek ov 100);
  Alcotest.(check (float 0.)) "restart forgets fp stores" 2.5
    (Exec.fpeek ov 200);
  Alcotest.(check int) "restart re-copies registers" 12 ov.Exec.iregs.(2);
  Alcotest.(check int) "restart drops overlay-only values" 0
    ov.Exec.iregs.(4);
  Alcotest.check_raises "restart needs an overlay"
    (Invalid_argument "Exec.restart: not an overlay") (fun () ->
      Exec.restart base ~pc:0 ~steps:0)

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "div by zero is total" `Quick test_div_by_zero_total;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "comparisons" `Quick test_compare_ops;
    Alcotest.test_case "loop sum" `Quick test_loop_sum;
    Alcotest.test_case "recursive fib" `Quick test_fib_recursive;
    Alcotest.test_case "memory" `Quick test_memory;
    Alcotest.test_case "fp ops" `Quick test_fp_ops;
    Alcotest.test_case "branch outcomes" `Quick test_branch_outcomes_in_dyn;
    Alcotest.test_case "halt stops" `Quick test_halt_stops;
    Alcotest.test_case "ret from entry halts" `Quick test_ret_from_entry_halts;
    Alcotest.test_case "iqset is a semantic nop" `Quick
      test_iqset_is_semantic_nop;
    Alcotest.test_case "max steps bound" `Quick test_max_steps_bound;
    Alcotest.test_case "overlay over a base state" `Quick test_overlay;
  ]
