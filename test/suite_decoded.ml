(* The decoded program ([Decoded]) against the analysis IR it is decoded
   from, and the table-driven datapath against the [Instr]-matching one
   it replaced: an in-test copy of that executor runs the same programs
   and instruction streams on a second state, and every register, every
   memory cell touched and every step outcome must agree — on the
   oracle ([Exec.advance]) and on the wrong-path overlay
   ([Exec.execute] over [Exec.overlay]). *)

open Sdiq_isa
module Gen = Sdiq_workloads.Gen
module Rng = Sdiq_util.Rng

let all_ops =
  Opcode.
    [|
      Add; Sub; And; Or; Xor; Shl; Shr; Slt; Sle; Seq; Sne; Addi; Andi; Ori;
      Xori; Shli; Shri; Slti; Li; Mov; Mul; Div; Fadd; Fsub; Fmul; Fdiv; Fli;
      Fmov; Itof; Ftoi; Load; Store; Fload; Fstore; Beq; Bne; Blt; Bge; Jmp;
      Call; Ret; Nop; Iqset; Halt;
    |]

(* Every operand shape: absent, r0, an int register, an fp register
   (f0 included — it is a real register). *)
let shapes = [| None; Some Reg.zero; Some (Reg.int 5); Some (Reg.fp 0); Some (Reg.fp 3) |]

(* Every opcode with every destination shape and a rotation of source
   shapes, so each opcode meets r0, absent and fp operands. *)
let every_opcode_prog =
  let code =
    Array.to_list all_ops
    |> List.concat_map (fun op ->
           List.init (Array.length shapes) (fun k ->
               let sh j = shapes.((k + j) mod Array.length shapes) in
               {
                 (Instr.make ~imm:(k - 2) ~target:k op) with
                 Instr.dst = sh 0;
                 src1 = sh 1;
                 src2 = sh 2;
               }))
    |> Array.of_list
  in
  { Prog.code; procs = []; entry = 0 }

(* --- random instructions ---------------------------------------------- *)

(* Few registers and small values, so operands alias, stores and loads
   meet, and addresses land on cells the base state wrote. *)
let reg_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return None);
        (1, return (Some Reg.zero));
        (4, map (fun k -> Some (Reg.int k)) (int_range 1 6));
        (3, map (fun k -> Some (Reg.fp k)) (int_range 0 4));
      ])

let instr_gen ~len =
  QCheck.Gen.(
    map
      (fun ((op, dst, src1, src2), (imm, target)) ->
        { (Instr.make ~imm ~target all_ops.(op)) with Instr.dst; src1; src2 })
      (pair
         (quad (int_bound (Array.length all_ops - 1)) reg_gen reg_gen reg_gen)
         (pair
            (frequency [ (6, int_range (-24) 24); (1, int) ])
            (int_range 0 len))))

let instrs_gen = QCheck.Gen.(list_size (int_range 1 40) (instr_gen ~len:40))

let print_instrs is = String.concat "; " (List.map Instr.to_string is)

(* --- decoded entries agree with Instr --------------------------------- *)

let sources_of (e : Decoded.entry) =
  let one i f =
    if i > 0 then [ Reg.Int i ] else if f >= 0 then [ Reg.Fp f ] else []
  in
  one e.isrc1 e.fsrc1 @ one e.isrc2 e.fsrc2

let dest_of (e : Decoded.entry) =
  if e.idst > 0 then Some (Reg.Int e.idst)
  else if e.fdst >= 0 then Some (Reg.Fp e.fdst)
  else None

let entry_agrees (i : Instr.t) (e : Decoded.entry) =
  e.op = i.Instr.op && e.imm = i.Instr.imm && e.target = i.Instr.target
  && e.is_load = Instr.is_load i
  && e.is_store = Instr.is_store i
  && e.is_mem = Instr.is_mem i
  && e.is_control = Instr.is_control i
  && e.fu = Fu.index (Instr.fu_class i)
  && e.latency = Instr.latency i
  && e.unpipelined = Opcode.unpipelined i.Instr.op
  && dest_of e = Instr.dest i
  && sources_of e = Instr.sources i
  (* the datapath's view: a non-int operand reads int 0, a non-fp one
     no fp register *)
  && (match i.Instr.src1 with Some (Reg.Int _) -> true | _ -> e.isrc1 = 0)
  && (match i.Instr.src2 with Some (Reg.Int _) -> true | _ -> e.isrc2 = 0)
  && (match i.Instr.dst with Some (Reg.Int _) -> true | _ -> e.idst = 0)

let prog_agrees (p : Prog.t) =
  let dec = Decoded.of_prog p in
  Array.length dec = Prog.length p
  && Array.for_all2 entry_agrees p.Prog.code dec

let prop_entries_agree =
  QCheck.Test.make ~count:100 ~name:"decoded entries agree with Instr"
    (QCheck.make ~print:(fun (s, is) -> Printf.sprintf "seed %d: %s" s (print_instrs is))
       QCheck.Gen.(pair (int_bound 1_000_000) instrs_gen))
    (fun (seed, instrs) ->
      prog_agrees every_opcode_prog
      && prog_agrees (Gen.random_program (Rng.create seed))
      && prog_agrees
           { Prog.code = Array.of_list instrs; procs = []; entry = 0 })

let test_every_opcode_covered () =
  Alcotest.(check bool) "every opcode and shape decodes as Instr says" true
    (prog_agrees every_opcode_prog);
  Alcotest.check_raises "out-of-range register"
    (Invalid_argument "Decoded.decode: register out of range") (fun () ->
      ignore (Decoded.decode (Instr.make ~dst:(Reg.Int 32) Opcode.Li)))

(* --- the Instr-matching reference datapath ------------------------------ *)

(* A copy of the executor the decoded table replaced, over the state's
   public registers and memory accessors. *)
module Ref = struct
  let ireg (t : Exec.state) r = if r = 0 then 0 else t.iregs.(r)
  let set_ireg (t : Exec.state) r v = if r <> 0 then t.iregs.(r) <- v

  let src1_int t (i : Instr.t) =
    match i.src1 with Some (Reg.Int r) -> ireg t r | _ -> 0

  let src2_int t (i : Instr.t) =
    match i.src2 with Some (Reg.Int r) -> ireg t r | _ -> 0

  let src1_fp (t : Exec.state) (i : Instr.t) =
    match i.src1 with Some (Reg.Fp r) -> t.fregs.(r) | _ -> 0.

  let src2_fp (t : Exec.state) (i : Instr.t) =
    match i.src2 with Some (Reg.Fp r) -> t.fregs.(r) | _ -> 0.

  let write_int t (i : Instr.t) v =
    match i.dst with
    | Some (Reg.Int r) -> set_ireg t r v
    | Some (Reg.Fp _) | None -> ()

  let write_fp (t : Exec.state) (i : Instr.t) v =
    match i.dst with
    | Some (Reg.Fp r) -> t.fregs.(r) <- v
    | Some (Reg.Int _) | None -> ()

  let shift_ok n = n >= 0 && n < 63

  let execute (t : Exec.state) (i : Instr.t) =
    t.d_addr <- -1;
    match i.op with
    | Opcode.Add -> write_int t i (src1_int t i + src2_int t i)
    | Opcode.Sub -> write_int t i (src1_int t i - src2_int t i)
    | Opcode.And -> write_int t i (src1_int t i land src2_int t i)
    | Opcode.Or -> write_int t i (src1_int t i lor src2_int t i)
    | Opcode.Xor -> write_int t i (src1_int t i lxor src2_int t i)
    | Opcode.Shl ->
      let n = src2_int t i in
      write_int t i (if shift_ok n then src1_int t i lsl n else 0)
    | Opcode.Shr ->
      let n = src2_int t i in
      write_int t i (if shift_ok n then src1_int t i lsr n else 0)
    | Opcode.Slt -> write_int t i (if src1_int t i < src2_int t i then 1 else 0)
    | Opcode.Sle ->
      write_int t i (if src1_int t i <= src2_int t i then 1 else 0)
    | Opcode.Seq -> write_int t i (if src1_int t i = src2_int t i then 1 else 0)
    | Opcode.Sne ->
      write_int t i (if src1_int t i <> src2_int t i then 1 else 0)
    | Opcode.Addi -> write_int t i (src1_int t i + i.imm)
    | Opcode.Andi -> write_int t i (src1_int t i land i.imm)
    | Opcode.Ori -> write_int t i (src1_int t i lor i.imm)
    | Opcode.Xori -> write_int t i (src1_int t i lxor i.imm)
    | Opcode.Shli ->
      write_int t i (if shift_ok i.imm then src1_int t i lsl i.imm else 0)
    | Opcode.Shri ->
      write_int t i (if shift_ok i.imm then src1_int t i lsr i.imm else 0)
    | Opcode.Slti -> write_int t i (if src1_int t i < i.imm then 1 else 0)
    | Opcode.Li -> write_int t i i.imm
    | Opcode.Mov -> write_int t i (src1_int t i)
    | Opcode.Mul -> write_int t i (src1_int t i * src2_int t i)
    | Opcode.Div ->
      let d = src2_int t i in
      write_int t i (if d = 0 then 0 else src1_int t i / d)
    | Opcode.Fadd -> write_fp t i (src1_fp t i +. src2_fp t i)
    | Opcode.Fsub -> write_fp t i (src1_fp t i -. src2_fp t i)
    | Opcode.Fmul -> write_fp t i (src1_fp t i *. src2_fp t i)
    | Opcode.Fdiv ->
      let d = src2_fp t i in
      write_fp t i (if d = 0. then 0. else src1_fp t i /. d)
    | Opcode.Fli -> write_fp t i (float_of_int i.imm /. 1000.)
    | Opcode.Fmov -> write_fp t i (src1_fp t i)
    | Opcode.Itof -> write_fp t i (float_of_int (src1_int t i))
    | Opcode.Ftoi -> write_int t i (int_of_float (src1_fp t i))
    | Opcode.Load ->
      let a = src1_int t i + i.imm in
      t.d_addr <- a;
      write_int t i (Exec.peek t a)
    | Opcode.Store ->
      let a = src1_int t i + i.imm in
      t.d_addr <- a;
      Exec.poke t a (src2_int t i)
    | Opcode.Fload ->
      let a = src1_int t i + i.imm in
      t.d_addr <- a;
      write_fp t i (Exec.fpeek t a)
    | Opcode.Fstore ->
      let a = src1_int t i + i.imm in
      t.d_addr <- a;
      Exec.fpoke t a (src2_fp t i)
    | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Bge | Opcode.Jmp
    | Opcode.Call | Opcode.Ret | Opcode.Nop | Opcode.Iqset | Opcode.Halt -> ()

  let advance (t : Exec.state) =
    if t.halted then false
    else if t.pc < 0 || t.pc >= Array.length t.prog.Prog.code then (
      t.halted <- true;
      false)
    else begin
      let pc = t.pc in
      let i = t.prog.Prog.code.(pc) in
      t.steps <- t.steps + 1;
      execute t i;
      let fallthrough = pc + 1 in
      t.d_next_pc <- fallthrough;
      t.d_taken <- false;
      let branch c =
        if c then begin
          t.d_taken <- true;
          t.d_next_pc <- i.target
        end
      in
      (match i.op with
      | Opcode.Beq -> branch (src1_int t i = src2_int t i)
      | Opcode.Bne -> branch (src1_int t i <> src2_int t i)
      | Opcode.Blt -> branch (src1_int t i < src2_int t i)
      | Opcode.Bge -> branch (src1_int t i >= src2_int t i)
      | Opcode.Jmp -> branch true
      | Opcode.Call ->
        branch true;
        t.stack <- fallthrough :: t.stack
      | Opcode.Ret -> (
        t.d_taken <- true;
        match t.stack with
        | ra :: rest ->
          t.stack <- rest;
          t.d_next_pc <- ra
        | [] -> t.halted <- true)
      | Opcode.Halt -> t.halted <- true
      | _ -> ());
      t.pc <- t.d_next_pc;
      true
    end
end

(* --- table-driven datapath == reference --------------------------------- *)

(* Registers (bit-for-bit, NaNs included), the step's outcome fields,
   and both memories at every address either state ever bound. *)
let same_state (a : Exec.state) (b : Exec.state) =
  let fbits r = Array.map Int64.bits_of_float r in
  let mem_agrees x y =
    let ok = ref true in
    Intmap.iter (fun k _ -> if Exec.peek x k <> Exec.peek y k then ok := false)
      x.Exec.imem;
    Hashtbl.iter
      (fun k _ ->
        if
          Int64.bits_of_float (Exec.fpeek x k)
          <> Int64.bits_of_float (Exec.fpeek y k)
        then ok := false)
      x.Exec.fmem;
    !ok
  in
  a.iregs = b.iregs
  && fbits a.fregs = fbits b.fregs
  && a.d_addr = b.d_addr && a.d_next_pc = b.d_next_pc
  && a.d_taken = b.d_taken && a.pc = b.pc && a.steps = b.steps
  && a.halted = b.halted && a.stack = b.stack
  && mem_agrees a b && mem_agrees b a

(* A base state with small register values and a few memory cells
   bound, identical for every call with the same seed. *)
let seeded_base prog seed =
  let st = Exec.create prog in
  let rng = Rng.create seed in
  for k = 1 to Reg.num_int - 1 do
    st.Exec.iregs.(k) <- Rng.int_in rng (-24) 24
  done;
  for k = 0 to Reg.num_fp - 1 do
    st.Exec.fregs.(k) <- Float.of_int (Rng.int_in rng (-3) 3) /. 2.
  done;
  for a = -32 to 32 do
    if Rng.bool rng then Exec.poke st a (Rng.int_in rng (-9) 9);
    if Rng.chance rng 0.2 then Exec.fpoke st a (Rng.float rng 4.)
  done;
  st

(* The oracle: [Exec.advance] against [Ref.advance], step by step. *)
let oracle_agrees prog ~seed ~max_steps =
  let a = seeded_base prog seed and b = seeded_base prog seed in
  let rec go n =
    n >= max_steps
    ||
    let sa = Exec.advance a in
    let sb = Ref.advance b in
    sa = sb && same_state a b && ((not sa) || go (n + 1))
  in
  same_state a b && go 0

(* The overlay: [Exec.execute] of each decoded entry against
   [Ref.execute] of the instruction, over two overlays of identical
   bases — which neither may change. *)
let overlay_agrees instrs ~seed =
  let prog = { Prog.code = Array.of_list instrs; procs = []; entry = 0 } in
  let base_a = seeded_base prog seed and base_b = seeded_base prog seed in
  let pristine = seeded_base prog seed in
  let a = Exec.overlay base_a and b = Exec.overlay base_b in
  Exec.restart a ~pc:0 ~steps:0;
  Exec.restart b ~pc:0 ~steps:0;
  List.for_all
    (fun i ->
      Exec.execute a (Decoded.decode i);
      Ref.execute b i;
      same_state a b)
    instrs
  && same_state base_a pristine && same_state base_b pristine

let prop_datapath_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"table-driven execute matches the Instr datapath"
    (QCheck.make
       ~print:(fun (s, is) -> Printf.sprintf "seed %d: %s" s (print_instrs is))
       QCheck.Gen.(pair (int_bound 1_000_000) instrs_gen))
    (fun (seed, instrs) ->
      (* A generated kernel to completion, a random program (any
         opcode and operand shape, wild control flow) for a bounded
         number of steps, and the same instructions on an overlay. *)
      oracle_agrees (Gen.random_program (Rng.create seed)) ~seed
        ~max_steps:20_000
      && oracle_agrees
           { Prog.code = Array.of_list instrs; procs = []; entry = 0 }
           ~seed ~max_steps:400
      && overlay_agrees instrs ~seed)

(* --- the pipeline's stages read what Instr says ------------------------ *)

(* A sink checks every dispatched and issued instruction, wrong path
   included, against its [Instr.t]: the dispatch kind, a non-memory
   op's latency, and the register-file reads of its issue (the
   [Rf_read] that follows the [Issue], absent when it reads none). The
   run's read counters must equal the totals. *)
let pipeline_agrees prog =
  let module Ev = Sdiq_events.Event in
  let module P = Sdiq_cpu.Pipeline in
  let p = P.create prog in
  let ok = ref true and pending = ref (0, 0) in
  let ints = ref 0 and fps = ref 0 in
  let expect cond = if not cond then ok := false in
  P.subscribe ~name:"decode-check" p (function
    | Ev.Dispatch { dyn; kind; _ } ->
      let i = dyn.Exec.instr in
      expect
        (kind
        = if Instr.is_load i then Ev.Load
          else if Instr.is_store i then Ev.Store
          else Ev.Plain)
    | Ev.Issue { dyn; latency; _ } ->
      let i = dyn.Exec.instr in
      expect (!pending = (0, 0));
      if not (Instr.is_mem i) then expect (latency = Instr.latency i);
      let srcs = Instr.sources i in
      let ni = List.length (List.filter Reg.is_int srcs) in
      pending := (ni, List.length srcs - ni);
      ints := !ints + ni;
      fps := !fps + List.length srcs - ni
    | Ev.Rf_read { ints; fps } ->
      expect (!pending = (ints, fps));
      pending := (0, 0)
    | _ -> ());
  let st = P.run ~max_insns:20_000 p in
  !ok && !pending = (0, 0)
  && st.Sdiq_cpu.Stats.int_rf_reads = !ints
  && st.Sdiq_cpu.Stats.fp_rf_reads = !fps

let test_pipeline_reads_decoded () =
  for seed = 1 to 12 do
    Alcotest.(check bool)
      (Printf.sprintf "Gen program %d" seed)
      true
      (pipeline_agrees (Gen.random_program (Rng.create seed)))
  done

let suite =
  [
    Alcotest.test_case "every opcode and operand shape" `Quick
      test_every_opcode_covered;
    QCheck_alcotest.to_alcotest prop_entries_agree;
    QCheck_alcotest.to_alcotest prop_datapath_matches_reference;
    Alcotest.test_case "pipeline stages read what Instr says" `Quick
      test_pipeline_reads_decoded;
  ]
