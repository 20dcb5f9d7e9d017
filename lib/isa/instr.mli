(** Machine instructions.

    [target] is an absolute instruction address (index into the flattened
    program) resolved by the assembler; meaningful only for control
    instructions. [tag] carries the paper's "Extension" encoding: the
    [max_new_range] value attached to an ordinary instruction via
    redundant ISA bits instead of a special NOOP (Section 5.3). *)

type t = {
  op : Opcode.t;
  dst : Reg.t option;
  src1 : Reg.t option;
  src2 : Reg.t option;
  imm : int;
  target : int;
  mutable tag : int option;
}

val make :
  ?dst:Reg.t ->
  ?src1:Reg.t ->
  ?src2:Reg.t ->
  ?imm:int ->
  ?target:int ->
  Opcode.t ->
  t

(** The destination register, if any; writes to the hardwired zero
    register are discarded and reported as [None]. *)
val dest : t -> Reg.t option

(** Source registers that create data dependences (reads of the zero
    register excluded). *)
val sources : t -> Reg.t list

val fu_class : t -> Fu.t
val latency : t -> int
val is_cond_branch : t -> bool
val is_control : t -> bool
val is_load : t -> bool
val is_store : t -> bool
val is_mem : t -> bool
val to_string : t -> string
