(** The decoded program: one flat entry per pc, built once per program
    by {!Exec.create} and shared by its overlays.

    Every dynamic instruction needs the same few facts of its static
    instruction — which registers it reads and writes, its class, unit
    and latency. {!Instr.t} keeps them behind options and opcode
    matches (the analysis IR); an entry holds them as immediate fields,
    so the oracle's datapath and every pipeline stage read an operand or
    a class bit with one load from the entry at the dynamic
    instruction's pc.

    Operand conventions: an int index of 0 means "none" (absent, the
    hardwired [r0], or an fp register in that position) — [r0] reads 0,
    so the datapath may read register 0 unconditionally; an fp index of
    -1 means "none". *)

(** Private: only {!decode} builds an entry, so its register indices are
    always in range — the datapath indexes register files unchecked. *)
type entry = private {
  op : Opcode.t;
  imm : int;
  target : int;
  isrc1 : int;  (** int register read as operand 1; 0 = none *)
  isrc2 : int;  (** int register read as operand 2; 0 = none *)
  fsrc1 : int;  (** fp register read as operand 1; -1 = none *)
  fsrc2 : int;  (** fp register read as operand 2; -1 = none *)
  idst : int;   (** int register written; 0 = none (writes to [r0] are
                    discarded) *)
  fdst : int;   (** fp register written; -1 = none *)
  fu : int;     (** [Fu.index (Instr.fu_class i)] *)
  latency : int;  (** [Instr.latency i] *)
  is_load : bool;
  is_store : bool;
  is_mem : bool;
  is_control : bool;
  unpipelined : bool;  (** [Opcode.unpipelined] *)
}

type t = entry array

(** Decode one instruction. Raises [Invalid_argument] on a register
    index outside its file. *)
val decode : Instr.t -> entry

(** [decode] at every pc of the program, in address order. The table is
    a snapshot: the program's code must not change afterwards. *)
val of_prog : Prog.t -> t
