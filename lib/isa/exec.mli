(** Functional (oracle) executor.

    The timing simulator is execution-driven: the functional core runs
    each instruction as it is fetched, producing the dynamic stream the
    timing model schedules. Arithmetic is total (division by zero yields
    0, out-of-range shifts yield 0, unwritten memory reads 0) so randomly
    generated programs cannot fault.

    One datapath ({!execute}) serves every executor: the oracle's
    {!advance} adds the architectural control resolution (the only one),
    {!step} is {!advance} plus a {!dyn} record, and the pipeline's
    wrong-path executor runs {!execute} on an {!overlay} with control
    flow taken from the branch predictor. The datapath reads its
    operands from the program's {!Decoded} table, built once by
    {!create}; the program's code must not change afterwards. *)

type dyn = {
  sn : int;       (** dynamic sequence number, from 0 *)
  pc : int;
  instr : Instr.t;
  next_pc : int;  (** address of the next dynamic instruction *)
  taken : bool;   (** control instructions: was the transfer taken *)
  addr : int;     (** memory effective address, -1 for non-memory ops *)
}

type state = {
  prog : Prog.t;
  dec : Decoded.t;
      (** [prog] decoded ({!Decoded.of_prog}), shared by an overlay with
          its base; the pipeline's stages read it too *)
  iregs : int array;  (** [iregs.(0)] is [r0]: it must stay 0 *)
  fregs : float array;
  imem : Intmap.t;  (** integer memory (paged, see {!Intmap}) *)
  fmem : (int, float) Hashtbl.t;
  base : state option;
      (** an overlay's base state ({!overlay}); [None] for the oracle *)
  mutable stack : int list;
  mutable pc : int;
  mutable steps : int;
  mutable halted : bool;
  mutable d_next_pc : int;
      (** the last {!advance}'s outcome (unboxed fields): the next pc,
          whether a control transfer was taken, and the memory address
          ([-1] for non-memory ops) *)
  mutable d_taken : bool;
  mutable d_addr : int;
}

val create : Prog.t -> state

(** [overlay base]: a state over [base]'s program whose stores stay its
    own and whose loads read [base]'s memory at every address it has
    not written. Its registers are copies taken by {!restart}, which
    must run before its first {!execute}. [base] is never mutated
    through it. *)
val overlay : state -> state

(** Re-enter an overlay at [pc] with [steps] as its next sequence
    number: forget its stores, re-copy the base's registers and clear
    [halted]. Costs O(cells the last episode wrote) and, once the
    overlay's pages exist, allocates nothing. Raises [Invalid_argument]
    on a non-overlay state. *)
val restart : state -> pc:int -> steps:int -> unit

(** Integer memory access (word granularity; unwritten reads 0; an
    overlay falls through to its base). *)
val peek : state -> int -> int

val poke : state -> int -> int -> unit
val fpeek : state -> int -> float
val fpoke : state -> int -> float -> unit

(** The datapath of one decoded instruction — normally [dec.(pc)]:
    ALU results, loads and stores, with the effective address in
    [d_addr] ([-1] for non-memory ops). Control transfers, [Nop],
    [Iqset] and [Halt] change nothing but [d_addr]; [pc], [steps] and
    [halted] are the caller's. *)
val execute : state -> Decoded.entry -> unit

(** Execute the instruction at the current pc — {!execute}, then the
    architectural control resolution — and move to the next, leaving
    the outcome in [d_next_pc], [d_taken] and [d_addr] and the executed
    instruction's sequence number in [steps - 1]. [false], with nothing
    executed, once halted. Allocates nothing but a call's return-address
    cell. *)
val advance : state -> bool

(** {!advance}, with the outcome as a {!dyn} record; [None] once
    halted. *)
val step : state -> dyn option

(** Run to completion or [max_steps]; returns executed instructions. *)
val run : ?max_steps:int -> state -> int
