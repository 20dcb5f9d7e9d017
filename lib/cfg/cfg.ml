(* Control-flow graph of one procedure.

   Basic blocks end at control instructions and also at calls: the paper's
   region decomposition (Section 4.1) treats a call as a boundary — the block
   after a call starts a new DAG — so making calls block terminators keeps
   blocks aligned with regions. [Halt] likewise terminates a block. *)

open Sdiq_isa

type block = {
  id : int;
  first : int; (* address of first instruction, inclusive *)
  last : int;  (* address of last instruction, inclusive *)
}

type t = {
  proc : Prog.proc;
  prog : Prog.t;
  blocks : block array;           (* indexed by block id, in address order *)
  succs : int list array;         (* successor block ids *)
  preds : int list array;
  block_of_addr : int array;      (* proc-relative address -> block id *)
}

let block_len b = b.last - b.first + 1

let block_addrs b = List.init (block_len b) (fun i -> b.first + i)

let instrs t b = List.map (fun a -> Prog.instr t.prog a) (block_addrs b)

let entry_block t = t.blocks.(0)

let num_blocks t = Array.length t.blocks

let block_at t addr =
  let rel = addr - t.proc.Prog.entry in
  if rel < 0 || rel >= Array.length t.block_of_addr then
    invalid_arg "Cfg.block_at: address outside procedure";
  t.blocks.(t.block_of_addr.(rel))

(* A block terminator: any control instruction or halt. *)
let terminates (i : Instr.t) =
  Instr.is_control i || i.op = Opcode.Halt

let build (prog : Prog.t) (proc : Prog.proc) : t =
  let lo = proc.entry and n = proc.len in
  if n = 0 then invalid_arg "Cfg.build: empty procedure";
  let hi = lo + n - 1 in
  let in_proc a = a >= lo && a <= hi in
  (* Mark leaders. *)
  let leader = Array.make n false in
  leader.(0) <- true;
  for a = lo to hi do
    let i = Prog.instr prog a in
    if terminates i then begin
      if a < hi then leader.(a + 1 - lo) <- true;
      if Instr.is_cond_branch i || i.op = Opcode.Jmp then
        if in_proc i.Instr.target then leader.(i.Instr.target - lo) <- true
    end
  done;
  (* Carve blocks. *)
  let blocks = ref [] in
  let start = ref lo in
  for a = lo to hi do
    let last_of_block =
      a = hi || leader.(a + 1 - lo) || terminates (Prog.instr prog a)
    in
    if last_of_block then begin
      blocks := { id = 0; first = !start; last = a } :: !blocks;
      start := a + 1
    end
  done;
  let blocks =
    Array.of_list (List.rev !blocks)
    |> Array.mapi (fun id b -> { b with id })
  in
  let block_of_addr = Array.make n 0 in
  Array.iter
    (fun b ->
      for a = b.first to b.last do
        block_of_addr.(a - lo) <- b.id
      done)
    blocks;
  let nb = Array.length blocks in
  let succs = Array.make nb [] in
  let preds = Array.make nb [] in
  let add_edge src dst =
    if not (List.mem dst succs.(src)) then begin
      succs.(src) <- dst :: succs.(src);
      preds.(dst) <- src :: preds.(dst)
    end
  in
  Array.iter
    (fun b ->
      let term = Prog.instr prog b.last in
      let fallthrough () =
        if b.last < hi then add_edge b.id block_of_addr.(b.last + 1 - lo)
      in
      match term.Instr.op with
      | Opcode.Jmp ->
        if in_proc term.Instr.target then
          add_edge b.id block_of_addr.(term.Instr.target - lo)
      | Opcode.Beq | Opcode.Bne | Opcode.Blt | Opcode.Bge ->
        if in_proc term.Instr.target then
          add_edge b.id block_of_addr.(term.Instr.target - lo);
        fallthrough ()
      | Opcode.Call ->
        (* Intra-procedural CFG: control returns to the fallthrough. *)
        fallthrough ()
      | Opcode.Ret | Opcode.Halt -> ()
      | _ -> fallthrough ())
    blocks;
  { proc; prog; blocks; succs; preds; block_of_addr }

let succs t id = t.succs.(id)
let preds t id = t.preds.(id)

(* Blocks in reverse post-order from the entry (a breadth-friendly forward
   order used by the DAG analysis). Unreachable blocks are appended at the
   end in address order. *)
let reverse_postorder t =
  let nb = num_blocks t in
  let visited = Array.make nb false in
  let order = ref [] in
  let rec dfs id =
    if not visited.(id) then begin
      visited.(id) <- true;
      List.iter dfs (List.sort compare t.succs.(id));
      order := id :: !order
    end
  in
  dfs 0;
  let reached = !order in
  let unreached =
    List.filter (fun id -> not visited.(id)) (List.init nb (fun i -> i))
  in
  reached @ unreached
