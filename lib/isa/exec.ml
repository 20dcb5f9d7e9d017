(* Functional (oracle) executor.

   The timing simulator is execution-driven in the SimpleScalar style: the
   functional core runs each instruction as it is fetched, producing the
   dynamic stream (branch outcomes, memory addresses, halt) that the timing
   model then schedules. The oracle only ever runs the correct path, so it
   and the pipeline always agree on the committed stream.

   One datapath ([execute]) serves every executor, and one function
   ([advance]) resolves the oracle's control flow. Both read the
   program's decoded table ([Decoded], built once by [create] and
   shared with overlays) rather than the [Instr.t] records: an operand
   is one load from the entry, not an option and a register variant to
   unwrap per dynamic instruction. [advance] allocates nothing per
   instruction and leaves its outcome in the state's [d_*] fields:
   fast-forward and [run] use it directly, and [step] is [advance] plus
   the [dyn] record detailed fetch keeps. The pipeline's
   wrong-path instructions run [execute] on an [overlay]: registers
   copied from the oracle at episode entry, stores kept to itself, loads
   falling through to the oracle's memory — with control flow decided by
   the branch predictor instead of [advance].

   Integer memory is a paged [Intmap] (dense pages for word-aligned
   addresses, a residue table for the rest); fp memory, which no kernel
   binds, stays a [Hashtbl].

   Arithmetic is total: integer division by zero yields 0, as does a shift
   by an out-of-range amount, so that randomly generated programs cannot
   fault. Loads from unwritten addresses return 0. *)

type dyn = {
  sn : int;       (* dynamic sequence number, from 0 *)
  pc : int;
  instr : Instr.t;
  next_pc : int;  (* address of the next dynamic instruction *)
  taken : bool;   (* control instructions: was the branch/jump taken *)
  addr : int;     (* memory effective address, -1 for non-memory ops *)
}

type state = {
  prog : Prog.t;
  dec : Decoded.t; (* [prog] decoded, shared with overlays *)
  iregs : int array;
  fregs : float array;
  imem : Intmap.t; (* paged: allocation-free loads *)
  fmem : (int, float) Hashtbl.t;
  base : state option;
      (* an overlay's base: memory this state never wrote reads from it *)
  mutable stack : int list; (* return addresses *)
  mutable pc : int;
  mutable steps : int;
  mutable halted : bool;
  (* [advance]'s outcome: OCaml would box [ref] cells, so the
     per-instruction outcome fields live on the state (DESIGN.md §13) *)
  mutable d_next_pc : int;
  mutable d_taken : bool;
  mutable d_addr : int;
}

let make prog dec ~imem ~base =
  {
    prog;
    dec;
    iregs = Array.make Reg.num_int 0;
    fregs = Array.make Reg.num_fp 0.;
    imem = Intmap.create imem;
    fmem = Hashtbl.create 256;
    base;
    stack = [];
    pc = prog.Prog.entry;
    steps = 0;
    halted = false;
    d_next_pc = 0;
    d_taken = false;
    d_addr = -1;
  }

let create prog = make prog (Decoded.of_prog prog) ~imem:4096 ~base:None
let overlay base = make base.prog base.dec ~imem:64 ~base:(Some base)

(* Re-enter an overlay at [pc]: its stores are forgotten and its
   registers re-copied from the base's current values. *)
let restart t ~pc ~steps =
  match t.base with
  | None -> invalid_arg "Exec.restart: not an overlay"
  | Some b ->
    Array.blit b.iregs 0 t.iregs 0 Reg.num_int;
    Array.blit b.fregs 0 t.fregs 0 Reg.num_fp;
    if Intmap.count t.imem > 0 then Intmap.clear t.imem;
    if Hashtbl.length t.fmem > 0 then Hashtbl.reset t.fmem;
    t.pc <- pc;
    t.steps <- steps;
    t.halted <- false

let rec peek t addr =
  match t.base with
  | None -> Intmap.find t.imem addr ~default:0
  | Some b ->
    if Intmap.mem t.imem addr then Intmap.find t.imem addr ~default:0
    else peek b addr

let rec fpeek t addr =
  match Hashtbl.find_opt t.fmem addr with
  | Some v -> v
  | None -> ( match t.base with None -> 0. | Some b -> fpeek b addr)

let poke t addr v = Intmap.replace t.imem addr v
let fpoke t addr v = Hashtbl.replace t.fmem addr v

(* Operands come from the decoded entry (see decoded.mli): int index 0
   is "none" and [r0] holds 0 for ever, so int reads need no test;
   -1 is the fp "none". Indices were range-checked at decode. *)
let ireg t r = Array.unsafe_get t.iregs r
let freg t r = if r < 0 then 0. else Array.unsafe_get t.fregs r

let write_int t (e : Decoded.entry) v =
  if e.idst <> 0 then Array.unsafe_set t.iregs e.idst v

let write_fp t (e : Decoded.entry) v =
  if e.fdst >= 0 then Array.unsafe_set t.fregs e.fdst v

let shift_ok n = n >= 0 && n < 63

(* The datapath: ALU results, loads and stores, with the effective
   address left in [d_addr] (-1 for non-memory ops). Control transfers,
   [Nop], [Iqset] and [Halt] have no datapath effect. *)
let execute t (e : Decoded.entry) =
  t.d_addr <- -1;
  match e.op with
  | Opcode.Add -> write_int t e (ireg t e.isrc1 + ireg t e.isrc2)
  | Opcode.Sub -> write_int t e (ireg t e.isrc1 - ireg t e.isrc2)
  | Opcode.And -> write_int t e (ireg t e.isrc1 land ireg t e.isrc2)
  | Opcode.Or -> write_int t e (ireg t e.isrc1 lor ireg t e.isrc2)
  | Opcode.Xor -> write_int t e (ireg t e.isrc1 lxor ireg t e.isrc2)
  | Opcode.Shl ->
    let n = ireg t e.isrc2 in
    write_int t e (if shift_ok n then ireg t e.isrc1 lsl n else 0)
  | Opcode.Shr ->
    let n = ireg t e.isrc2 in
    write_int t e (if shift_ok n then ireg t e.isrc1 lsr n else 0)
  | Opcode.Slt ->
    write_int t e (if ireg t e.isrc1 < ireg t e.isrc2 then 1 else 0)
  | Opcode.Sle ->
    write_int t e (if ireg t e.isrc1 <= ireg t e.isrc2 then 1 else 0)
  | Opcode.Seq ->
    write_int t e (if ireg t e.isrc1 = ireg t e.isrc2 then 1 else 0)
  | Opcode.Sne ->
    write_int t e (if ireg t e.isrc1 <> ireg t e.isrc2 then 1 else 0)
  | Opcode.Addi -> write_int t e (ireg t e.isrc1 + e.imm)
  | Opcode.Andi -> write_int t e (ireg t e.isrc1 land e.imm)
  | Opcode.Ori -> write_int t e (ireg t e.isrc1 lor e.imm)
  | Opcode.Xori -> write_int t e (ireg t e.isrc1 lxor e.imm)
  | Opcode.Shli ->
    write_int t e (if shift_ok e.imm then ireg t e.isrc1 lsl e.imm else 0)
  | Opcode.Shri ->
    write_int t e (if shift_ok e.imm then ireg t e.isrc1 lsr e.imm else 0)
  | Opcode.Slti -> write_int t e (if ireg t e.isrc1 < e.imm then 1 else 0)
  | Opcode.Li -> write_int t e e.imm
  | Opcode.Mov -> write_int t e (ireg t e.isrc1)
  | Opcode.Mul -> write_int t e (ireg t e.isrc1 * ireg t e.isrc2)
  | Opcode.Div ->
    let d = ireg t e.isrc2 in
    write_int t e (if d = 0 then 0 else ireg t e.isrc1 / d)
  | Opcode.Fadd -> write_fp t e (freg t e.fsrc1 +. freg t e.fsrc2)
  | Opcode.Fsub -> write_fp t e (freg t e.fsrc1 -. freg t e.fsrc2)
  | Opcode.Fmul -> write_fp t e (freg t e.fsrc1 *. freg t e.fsrc2)
  | Opcode.Fdiv ->
    let d = freg t e.fsrc2 in
    write_fp t e (if d = 0. then 0. else freg t e.fsrc1 /. d)
  | Opcode.Fli -> write_fp t e (float_of_int e.imm /. 1000.)
  | Opcode.Fmov -> write_fp t e (freg t e.fsrc1)
  | Opcode.Itof -> write_fp t e (float_of_int (ireg t e.isrc1))
  | Opcode.Ftoi -> write_int t e (int_of_float (freg t e.fsrc1))
  | Opcode.Load ->
    let a = ireg t e.isrc1 + e.imm in
    t.d_addr <- a;
    write_int t e (peek t a)
  | Opcode.Store ->
    let a = ireg t e.isrc1 + e.imm in
    t.d_addr <- a;
    poke t a (ireg t e.isrc2)
  | Opcode.Fload ->
    let a = ireg t e.isrc1 + e.imm in
    t.d_addr <- a;
    write_fp t e (fpeek t a)
  | Opcode.Fstore ->
    let a = ireg t e.isrc1 + e.imm in
    t.d_addr <- a;
    fpoke t a (freg t e.fsrc2)
  | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Bge | Opcode.Jmp
  | Opcode.Call | Opcode.Ret | Opcode.Nop | Opcode.Iqset | Opcode.Halt -> ()

(* Execute the instruction at [t.pc] and move to the next: [execute],
   then the oracle's control resolution, the one place the architectural
   outcome of a control transfer is decided. The outcome is left in
   [d_next_pc]/[d_taken]/[d_addr]; [false] (nothing executed) once
   halted. Allocates nothing but a call's return-address cons. *)
let advance t =
  if t.halted then false
  else if t.pc < 0 || t.pc >= Array.length t.dec then (
    t.halted <- true;
    false)
  else begin
    let pc = t.pc in
    let e = Array.unsafe_get t.dec pc in
    t.steps <- t.steps + 1;
    execute t e;
    let fallthrough = pc + 1 in
    t.d_next_pc <- fallthrough;
    t.d_taken <- false;
    (match e.op with
    | Opcode.Beq ->
      if ireg t e.isrc1 = ireg t e.isrc2 then (t.d_taken <- true; t.d_next_pc <- e.target)
    | Opcode.Bne ->
      if ireg t e.isrc1 <> ireg t e.isrc2 then (t.d_taken <- true; t.d_next_pc <- e.target)
    | Opcode.Blt ->
      if ireg t e.isrc1 < ireg t e.isrc2 then (t.d_taken <- true; t.d_next_pc <- e.target)
    | Opcode.Bge ->
      if ireg t e.isrc1 >= ireg t e.isrc2 then (t.d_taken <- true; t.d_next_pc <- e.target)
    | Opcode.Jmp ->
      t.d_taken <- true;
      t.d_next_pc <- e.target
    | Opcode.Call ->
      t.d_taken <- true;
      t.stack <- fallthrough :: t.stack;
      t.d_next_pc <- e.target
    | Opcode.Ret -> (
      t.d_taken <- true;
      match t.stack with
      | ra :: rest ->
        t.stack <- rest;
        t.d_next_pc <- ra
      | [] -> t.halted <- true (* return from the entry procedure *))
    | Opcode.Halt -> t.halted <- true
    | _ -> ());
    t.pc <- t.d_next_pc;
    true
  end

(* [advance], with the outcome as a [dyn] record; [None] once halted. *)
let step t : dyn option =
  let pc = t.pc in
  if advance t then
    Some
      {
        sn = t.steps - 1;
        pc;
        instr = t.prog.Prog.code.(pc);
        next_pc = t.d_next_pc;
        taken = t.d_taken;
        addr = t.d_addr;
      }
  else None

(* Run to completion (or [max_steps]); returns the number of executed
   instructions. *)
let run ?(max_steps = 10_000_000) t =
  let rec loop n = if n < max_steps && advance t then loop (n + 1) else n in
  loop 0
