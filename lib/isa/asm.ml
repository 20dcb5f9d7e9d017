(* A tiny assembler DSL.

   Workloads build procedures by emitting instructions into a buffer with
   symbolic labels; [assemble] lays procedures out contiguously, resolves
   local labels and cross-procedure calls, and returns a {!Prog.t}.

   Usage:
   {[
     let b = Asm.create () in
     let p = Asm.proc b "main" in
     Asm.li p (Reg.int 1) 10;
     Asm.label p "loop";
     Asm.addi p (Reg.int 2) (Reg.int 2) 1;
     Asm.addi p (Reg.int 1) (Reg.int 1) (-1);
     Asm.bne p (Reg.int 1) Reg.zero "loop";
     Asm.halt p;
     let prog = Asm.assemble b ~entry:"main"
   ]} *)

type pending = {
  p_op : Opcode.t;
  p_dst : Reg.t option;
  p_src1 : Reg.t option;
  p_src2 : Reg.t option;
  p_imm : int;
  p_sym : string option; (* label (branch) or procedure name (call) *)
}

type proc_buf = {
  pname : string;
  mutable items : pending list; (* reversed *)
  mutable labels : (string * int) list; (* label -> offset within proc *)
  mutable pcount : int;
  library : bool;
}

type t = { mutable procs : proc_buf list (* reversed *) }

exception Error of string

let error fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

let create () = { procs = [] }

let proc ?(library = false) t name =
  if List.exists (fun p -> p.pname = name) t.procs then
    error "Asm: duplicate procedure %S" name;
  let p = { pname = name; items = []; labels = []; pcount = 0; library } in
  t.procs <- p :: t.procs;
  p

let label p name =
  if List.mem_assoc name p.labels then
    error "Asm: duplicate label %S in %S" name p.pname;
  p.labels <- (name, p.pcount) :: p.labels

let emit p ?dst ?src1 ?src2 ?(imm = 0) ?sym op =
  p.items <-
    { p_op = op; p_dst = dst; p_src1 = src1; p_src2 = src2; p_imm = imm;
      p_sym = sym }
    :: p.items;
  p.pcount <- p.pcount + 1

(* Register-register ALU ops *)
let rrr op p dst src1 src2 = emit p ~dst ~src1 ~src2 op
let add = rrr Opcode.Add
let sub = rrr Opcode.Sub
let and_ = rrr Opcode.And
let or_ = rrr Opcode.Or
let xor = rrr Opcode.Xor
let shl = rrr Opcode.Shl
let shr = rrr Opcode.Shr
let slt = rrr Opcode.Slt
let sle = rrr Opcode.Sle
let seq = rrr Opcode.Seq
let sne = rrr Opcode.Sne
let mul = rrr Opcode.Mul
let div = rrr Opcode.Div
let fadd = rrr Opcode.Fadd
let fmul = rrr Opcode.Fmul
let fdiv = rrr Opcode.Fdiv

(* Register-immediate ALU ops *)
let rri op p dst src1 imm = emit p ~dst ~src1 ~imm op
let addi = rri Opcode.Addi
let andi = rri Opcode.Andi
let ori = rri Opcode.Ori
let shli = rri Opcode.Shli
let shri = rri Opcode.Shri
let slti = rri Opcode.Slti

let li p dst imm = emit p ~dst ~imm Opcode.Li

(* [fli p f x] loads the float [x] into [f]; the value is stored scaled by
   1000 in the immediate field. *)
let fli p dst x = emit p ~dst ~imm:(int_of_float (x *. 1000.)) Opcode.Fli

let mov p dst src1 = emit p ~dst ~src1 Opcode.Mov
let itof p dst src1 = emit p ~dst ~src1 Opcode.Itof
let ftoi p dst src1 = emit p ~dst ~src1 Opcode.Ftoi

let load p dst base imm = emit p ~dst ~src1:base ~imm Opcode.Load
let store p base value imm = emit p ~src1:base ~src2:value ~imm Opcode.Store
let fstore p base value imm = emit p ~src1:base ~src2:value ~imm Opcode.Fstore

(* Conditional branches compare src1 against src2 and jump to a local label *)
let branch op p src1 src2 sym = emit p ~src1 ~src2 ~sym op
let beq = branch Opcode.Beq
let bne = branch Opcode.Bne
let blt = branch Opcode.Blt
let bge = branch Opcode.Bge

let jmp p sym = emit p ~sym Opcode.Jmp
let call p sym = emit p ~sym Opcode.Call
let ret p = emit p Opcode.Ret
let nop p = emit p Opcode.Nop
let iqset p v = emit p ~imm:v Opcode.Iqset
let halt p = emit p Opcode.Halt

let assemble t ~entry =
  let procs = List.rev t.procs in
  if procs = [] then error "Asm: no procedures";
  (* Lay out procedures contiguously in declaration order. *)
  let entries = Hashtbl.create 16 in
  let next = ref 0 in
  let layout =
    List.map
      (fun p ->
        let e = !next in
        Hashtbl.replace entries p.pname e;
        next := !next + p.pcount;
        (p, e))
      procs
  in
  let code = Array.make !next (Instr.make Opcode.Nop) in
  let resolve p base pend idx =
    let target =
      match pend.p_sym with
      | None -> -1
      | Some sym -> (
        match pend.p_op with
        | Opcode.Call -> (
          match Hashtbl.find_opt entries sym with
          | Some e -> e
          | None -> error "Asm: call to unknown procedure %S" sym)
        | _ -> (
          match List.assoc_opt sym p.labels with
          | Some off -> base + off
          | None -> error "Asm: unknown label %S in %S (at offset %d)" sym
                      p.pname idx))
    in
    Instr.make ?dst:pend.p_dst ?src1:pend.p_src1 ?src2:pend.p_src2
      ~imm:pend.p_imm ~target pend.p_op
  in
  List.iter
    (fun (p, base) ->
      (* Labels must point inside the procedure. *)
      List.iter
        (fun (name, off) ->
          if off > p.pcount then
            error "Asm: label %S in %S beyond end" name p.pname;
          if off = p.pcount then
            error "Asm: label %S in %S at end of procedure (no instruction \
                   follows)" name p.pname)
        p.labels;
      List.iteri
        (fun i pend -> code.(base + i) <- resolve p base pend i)
        (List.rev p.items))
    layout;
  let prog_procs =
    List.map
      (fun (p, base) ->
        { Prog.name = p.pname; entry = base; len = p.pcount;
          is_library = p.library })
      layout
  in
  match Hashtbl.find_opt entries entry with
  | None -> error "Asm: entry procedure %S not defined" entry
  | Some e -> { Prog.code; procs = prog_procs; entry = e }
