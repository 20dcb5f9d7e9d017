(** A tiny assembler DSL: emit instructions with symbolic labels into
    procedure buffers, then {!assemble} into a {!Prog.t} with all local
    labels and cross-procedure calls resolved.

    {[
      let b = Asm.create () in
      let p = Asm.proc b "main" in
      Asm.li p (Reg.int 1) 10;
      Asm.label p "loop";
      Asm.addi p (Reg.int 1) (Reg.int 1) (-1);
      Asm.bne p (Reg.int 1) Reg.zero "loop";
      Asm.halt p;
      let prog = Asm.assemble b ~entry:"main"
    ]} *)

type t
type proc_buf

(** Raised on malformed input: duplicate procedure or label names,
    unresolved labels or callees, missing entry procedure. *)
exception Error of string

val create : unit -> t

(** Open a new procedure buffer; [library] marks it opaque to the
    analysis. Raises {!Error} on a duplicate name. *)
val proc : ?library:bool -> t -> string -> proc_buf

(** Bind a label to the next emitted instruction. *)
val label : proc_buf -> string -> unit

(** Generic emitter; the named helpers below are preferred. *)
val emit :
  proc_buf ->
  ?dst:Reg.t ->
  ?src1:Reg.t ->
  ?src2:Reg.t ->
  ?imm:int ->
  ?sym:string ->
  Opcode.t ->
  unit

(** {2 Register-register ALU} *)

val add : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val sub : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val and_ : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val or_ : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val xor : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val shl : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val shr : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val slt : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val sle : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val seq : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val sne : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val mul : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val div : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val fadd : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val fmul : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit
val fdiv : proc_buf -> Reg.t -> Reg.t -> Reg.t -> unit

(** {2 Register-immediate ALU} *)

val addi : proc_buf -> Reg.t -> Reg.t -> int -> unit
val andi : proc_buf -> Reg.t -> Reg.t -> int -> unit
val ori : proc_buf -> Reg.t -> Reg.t -> int -> unit
val shli : proc_buf -> Reg.t -> Reg.t -> int -> unit
val shri : proc_buf -> Reg.t -> Reg.t -> int -> unit
val slti : proc_buf -> Reg.t -> Reg.t -> int -> unit
val li : proc_buf -> Reg.t -> int -> unit

(** [fli p f x] loads the float [x], stored scaled by 1000 in the
    immediate. *)
val fli : proc_buf -> Reg.t -> float -> unit

val mov : proc_buf -> Reg.t -> Reg.t -> unit
val itof : proc_buf -> Reg.t -> Reg.t -> unit
val ftoi : proc_buf -> Reg.t -> Reg.t -> unit

(** {2 Memory} — effective address is [base + imm] *)

val load : proc_buf -> Reg.t -> Reg.t -> int -> unit
val store : proc_buf -> Reg.t -> Reg.t -> int -> unit
val fstore : proc_buf -> Reg.t -> Reg.t -> int -> unit

(** {2 Control} — conditional branches compare [src1] against [src2] *)

val beq : proc_buf -> Reg.t -> Reg.t -> string -> unit
val bne : proc_buf -> Reg.t -> Reg.t -> string -> unit
val blt : proc_buf -> Reg.t -> Reg.t -> string -> unit
val bge : proc_buf -> Reg.t -> Reg.t -> string -> unit
val jmp : proc_buf -> string -> unit
val call : proc_buf -> string -> unit
val ret : proc_buf -> unit

(** {2 Miscellaneous} *)

val nop : proc_buf -> unit

(** The special NOOP carrying a [max_new_range] value. *)
val iqset : proc_buf -> int -> unit

val halt : proc_buf -> unit

(** Lay procedures out contiguously in declaration order, resolve all
    labels and calls. Raises {!Error} on any unresolved reference. *)
val assemble : t -> entry:string -> Prog.t
