(* The decoded program (see decoded.mli): the per-pc facts every
   dynamic instruction needs, decoded once per program instead of once
   per fetch, dispatch, issue and commit. Register indices are checked
   here, once, so the readers index register files and rename maps
   without a bounds check of their own. *)

type entry = {
  op : Opcode.t;
  imm : int;
  target : int;
  isrc1 : int;
  isrc2 : int;
  fsrc1 : int;
  fsrc2 : int;
  idst : int;
  fdst : int;
  fu : int;
  latency : int;
  is_load : bool;
  is_store : bool;
  is_mem : bool;
  is_control : bool;
  unpipelined : bool;
}

type t = entry array

let checked n a =
  if a < 0 || a >= n then invalid_arg "Decoded.decode: register out of range";
  a

(* An operand's int and fp indices: (0, -1) when it is neither. *)
let int_of = function
  | Some (Reg.Int a) -> checked Reg.num_int a
  | Some (Reg.Fp _) | None -> 0

let fp_of = function
  | Some (Reg.Fp a) -> checked Reg.num_fp a
  | Some (Reg.Int _) | None -> -1

let decode (i : Instr.t) =
  let op = i.Instr.op in
  {
    op;
    imm = i.Instr.imm;
    target = i.Instr.target;
    isrc1 = int_of i.Instr.src1;
    isrc2 = int_of i.Instr.src2;
    fsrc1 = fp_of i.Instr.src1;
    fsrc2 = fp_of i.Instr.src2;
    idst = int_of i.Instr.dst;
    fdst = fp_of i.Instr.dst;
    fu = Fu.index (Opcode.fu_class op);
    latency = Opcode.latency op;
    is_load = Opcode.is_load op;
    is_store = Opcode.is_store op;
    is_mem = Opcode.is_mem op;
    is_control = Opcode.is_control op;
    unpipelined = Opcode.unpipelined op;
  }

let of_prog (p : Prog.t) = Array.map decode p.Prog.code
