(** Interval abstract interpretation: a value-range domain for the
    {!Dataflow} engine (which previously only carried bitset facts).

    The lattice element is a closed integer interval [[lo, hi]] with
    [min_int]/[max_int] standing for the infinities, plus an explicit
    bottom. Plain interval join has unbounded ascending chains (a
    counting loop grows its bound forever), so {!join} widens to a
    finite threshold set whenever a genuine merge occurs: endpoints that
    leave the threshold set jump to the nearest enclosing threshold.
    With thresholds drawn from the procedure's own immediates the
    lattice height is finite and the engine's step budget is never at
    risk — the qcheck property pins [Diverged]-freedom on random CFGs.

    {!analyze} runs the per-procedure fixpoint; {!summaries} runs the
    interprocedural round-robin fixpoint (mirroring {!Summary}) so call
    sites transfer the callee's may-defined registers to the callee's
    exit intervals instead of havocking everything. *)

type t =
  | Bot  (** unreachable / no value *)
  | Iv of { lo : int; hi : int }
      (** [lo <= hi]; [min_int]/[max_int] are the infinities *)

val bot : t
val top : t
val const : int -> t

(** [make lo hi] normalises: [Bot] when [lo > hi]. *)
val make : int -> int -> t

val equal : t -> t -> bool

(** Partial order: [leq a b] iff [a] is contained in [b]. *)
val leq : t -> t -> bool

(** Exact interval hull — no widening. Unbounded ascending chains. *)
val hull : t -> t -> t

(** Widening to thresholds: endpoints of [hull a b] that escape [a]
    jump to the nearest enclosing threshold (or infinity). Always
    [leq (hull a b) (widen ~thresholds a b)]. [thresholds] must be
    sorted ascending. *)
val widen : thresholds:int array -> t -> t -> t

(** Saturating interval arithmetic (sound for any operand ranges). *)
val add : t -> t -> t

val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

(** The threshold set of a procedure: its immediates, [{-1; 0; 1}] and
    the infinities, sorted and deduplicated. *)
val thresholds_of_proc : Sdiq_isa.Prog.t -> Sdiq_isa.Prog.proc -> int array

(** Register environment, indexed by {!Sdiq_isa.Reg.dense}. *)
type env = t array

val env_top : unit -> env
val env_bot : unit -> env
val env_equal : env -> env -> bool
val env_join : thresholds:int array -> env -> env -> env

(** Value of one register ([Bot] for the hardwired zero's writes is
    never stored: reads of [r0] evaluate to [const 0]). *)
val lookup : env -> Sdiq_isa.Reg.t -> t

(** Abstract evaluation of one instruction (no control effect). [call]
    supplies the environment transformer for [Call] instructions —
    {!summaries} plugs the interprocedural transfer in; the default
    havocks every register. *)
val eval :
  ?call:(target:int -> env -> env) -> env -> Sdiq_isa.Instr.t -> env

(** Per-procedure interval summary: [may_defs] over-approximates the
    registers the procedure (or any transitive callee) can write;
    [ret_env] is a sound environment at any [Ret], computed from a top
    entry environment so it holds for every call site. *)
type proc_summary = {
  may_defs : Regset.t;
  ret_env : env;
}

(** Interprocedural round-robin fixpoint over the call graph, keyed by
    entry address, mirroring {!Summary.of_program}. [may_defs] only
    grows and [ret_env] only widens, so it terminates. Library and
    empty procedures are opaque (everything may-defined, top exit). *)
val summaries : Sdiq_isa.Prog.t -> (int, proc_summary) Hashtbl.t

type solution = {
  entry : env array;  (** environment at each block's entry *)
  exit : env array;
}

(** The per-procedure fixpoint through {!Dataflow.run}, with the
    interprocedural call transfer when [summaries] is given. *)
val analyze :
  ?summaries:(int, proc_summary) Hashtbl.t ->
  Sdiq_isa.Prog.t ->
  Sdiq_isa.Prog.proc ->
  Sdiq_cfg.Cfg.t ->
  solution

val pp : Format.formatter -> t -> unit
