(* A workload: a program plus its memory initialiser.

   Each benchmark mimics the dominant character of its SPECint2000
   namesake (the paper's benchmark set, Section 5.1): instruction mix,
   branch behaviour, memory footprint and call density — the axes that
   drive the paper's per-benchmark variation. All initialisation is
   deterministic from a fixed per-benchmark seed. *)

open Sdiq_isa

type t = {
  name : string;
  description : string;
  prog : Prog.t;
  init : Exec.state -> unit;
}

let make ~name ~description ~build ~init =
  let b = Asm.create () in
  build b;
  let prog = Asm.assemble b ~entry:"main" in
  { name; description; prog; init }
