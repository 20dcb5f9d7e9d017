(* Assembled programs.

   A program is a flat array of instructions. Each procedure occupies a
   contiguous range; [Opcode.Call] targets the entry address of its callee.
   Programs are produced by {!Asm.assemble} and rewritten (for special-NOOP
   insertion) by {!Rewrite}. *)

type proc = {
  name : string;
  entry : int;  (* address of the first instruction *)
  len : int;    (* number of instructions *)
  is_library : bool;
      (* library routines are opaque to the analysis: the IQ is allowed to
         grow to its maximum before calling one (Section 4.4) *)
}

type t = {
  code : Instr.t array;
  procs : proc list;
  entry : int;  (* address where execution starts *)
}

let length t = Array.length t.code

let instr t addr =
  if addr < 0 || addr >= Array.length t.code then
    invalid_arg (Printf.sprintf "Prog.instr: address %d out of range" addr);
  t.code.(addr)

let find_proc t name = List.find_opt (fun (p : proc) -> p.name = name) t.procs

let proc_of_addr t addr =
  List.find_opt
    (fun (p : proc) -> addr >= p.entry && addr < p.entry + p.len)
    t.procs

(* Addresses of instructions belonging to [p], in order. *)
let proc_addrs p = List.init p.len (fun i -> p.entry + i)


(* Static counts used in reports. *)
let count_matching t f =
  Array.fold_left (fun acc i -> if f i then acc + 1 else acc) 0 t.code
