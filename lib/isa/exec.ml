(* Functional (oracle) executor.

   The timing simulator is execution-driven in the SimpleScalar style: the
   functional core runs each instruction as it is fetched, producing the
   dynamic stream (branch outcomes, memory addresses, halt) that the timing
   model then schedules. The oracle only ever runs the correct path, so it
   and the pipeline always agree on the committed stream.

   One datapath ([execute]) serves every executor, and one function
   ([advance]) resolves the oracle's control flow. [advance] allocates
   nothing per instruction and leaves its outcome in the state's [d_*]
   fields: fast-forward and [run] use it directly, and [step] is
   [advance] plus the [dyn] record detailed fetch keeps. The pipeline's
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

let make prog ~imem ~base =
  {
    prog;
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

let create prog = make prog ~imem:4096 ~base:None
let overlay base = make base.prog ~imem:64 ~base:(Some base)

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

let ireg t r = if r = 0 then 0 else t.iregs.(r)
let set_ireg t r v = if r <> 0 then t.iregs.(r) <- v

let src1_int t (i : Instr.t) =
  match i.src1 with Some (Reg.Int r) -> ireg t r | _ -> 0

let src2_int t (i : Instr.t) =
  match i.src2 with Some (Reg.Int r) -> ireg t r | _ -> 0

let src1_fp t (i : Instr.t) =
  match i.src1 with Some (Reg.Fp r) -> t.fregs.(r) | _ -> 0.

let src2_fp t (i : Instr.t) =
  match i.src2 with Some (Reg.Fp r) -> t.fregs.(r) | _ -> 0.

let write_int t (i : Instr.t) v =
  match i.dst with
  | Some (Reg.Int r) -> set_ireg t r v
  | Some (Reg.Fp _) | None -> ()

let write_fp t (i : Instr.t) v =
  match i.dst with
  | Some (Reg.Fp r) -> t.fregs.(r) <- v
  | Some (Reg.Int _) | None -> ()

let shift_ok n = n >= 0 && n < 63

(* The datapath: ALU results, loads and stores, with the effective
   address left in [d_addr] (-1 for non-memory ops). Control transfers,
   [Nop], [Iqset] and [Halt] have no datapath effect. *)
let execute t (i : Instr.t) =
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
  | Opcode.Sle -> write_int t i (if src1_int t i <= src2_int t i then 1 else 0)
  | Opcode.Seq -> write_int t i (if src1_int t i = src2_int t i then 1 else 0)
  | Opcode.Sne -> write_int t i (if src1_int t i <> src2_int t i then 1 else 0)
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
    write_int t i (peek t a)
  | Opcode.Store ->
    let a = src1_int t i + i.imm in
    t.d_addr <- a;
    poke t a (src2_int t i)
  | Opcode.Fload ->
    let a = src1_int t i + i.imm in
    t.d_addr <- a;
    write_fp t i (fpeek t a)
  | Opcode.Fstore ->
    let a = src1_int t i + i.imm in
    t.d_addr <- a;
    fpoke t a (src2_fp t i)
  | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Bge | Opcode.Jmp
  | Opcode.Call | Opcode.Ret | Opcode.Nop | Opcode.Iqset | Opcode.Halt -> ()

(* Execute the instruction at [t.pc] and move to the next: [execute],
   then the oracle's control resolution, the one place the architectural
   outcome of a control transfer is decided. The outcome is left in
   [d_next_pc]/[d_taken]/[d_addr]; [false] (nothing executed) once
   halted. Allocates nothing but a call's return-address cons. *)
let advance t =
  if t.halted then false
  else if t.pc < 0 || t.pc >= Array.length t.prog.Prog.code then (
    t.halted <- true;
    false)
  else begin
    let pc = t.pc in
    let i = Array.unsafe_get t.prog.Prog.code pc in
    t.steps <- t.steps + 1;
    execute t i;
    let fallthrough = pc + 1 in
    t.d_next_pc <- fallthrough;
    t.d_taken <- false;
    (match i.op with
    | Opcode.Beq ->
      if src1_int t i = src2_int t i then (t.d_taken <- true; t.d_next_pc <- i.target)
    | Opcode.Bne ->
      if src1_int t i <> src2_int t i then (t.d_taken <- true; t.d_next_pc <- i.target)
    | Opcode.Blt ->
      if src1_int t i < src2_int t i then (t.d_taken <- true; t.d_next_pc <- i.target)
    | Opcode.Bge ->
      if src1_int t i >= src2_int t i then (t.d_taken <- true; t.d_next_pc <- i.target)
    | Opcode.Jmp ->
      t.d_taken <- true;
      t.d_next_pc <- i.target
    | Opcode.Call ->
      t.d_taken <- true;
      t.stack <- fallthrough :: t.stack;
      t.d_next_pc <- i.target
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
