(** A workload: a program plus its deterministic memory initialiser.
    Each benchmark mimics the dominant character of its SPECint2000
    namesake (instruction mix, branch behaviour, memory footprint, call
    density). *)

type t = {
  name : string;
  description : string;
  prog : Sdiq_isa.Prog.t;
  init : Sdiq_isa.Exec.state -> unit;
}

(** Assemble a workload from a builder over an assembler buffer; the
    entry procedure must be named "main". *)
val make :
  name:string ->
  description:string ->
  build:(Sdiq_isa.Asm.t -> unit) ->
  init:(Sdiq_isa.Exec.state -> unit) ->
  t
