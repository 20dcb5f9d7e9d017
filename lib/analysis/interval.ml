(* Interval abstract interpretation over the Dataflow engine.

   The engine recomputes each block's input fresh on every visit by
   folding [join] over predecessor outputs, so termination rests
   entirely on the join: plain interval hull has unbounded ascending
   chains (a counting loop manufactures a new constant every
   iteration), so [join] widens any endpoint that escapes the
   accumulated fact to the nearest enclosing threshold. Thresholds are
   the procedure's own immediates plus {-1, 0, 1} and the infinities:
   loop bounds written in the code survive widening exactly, which is
   what the trip-count pass needs. *)

open Sdiq_isa

type t =
  | Bot
  | Iv of { lo : int; hi : int }

let bot = Bot
let top = Iv { lo = min_int; hi = max_int }
let const n = Iv { lo = n; hi = n }
let make lo hi = if lo > hi then Bot else Iv { lo; hi }

let equal a b =
  match (a, b) with
  | Bot, Bot -> true
  | Iv a, Iv b -> a.lo = b.lo && a.hi = b.hi
  | _ -> false

let leq a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | Iv a, Iv b -> b.lo <= a.lo && a.hi <= b.hi

let hull a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Iv a, Iv b -> Iv { lo = min a.lo b.lo; hi = max a.hi b.hi }

(* Largest threshold <= v / smallest >= v; [thresholds] is sorted and
   contains the infinities, so both always exist. *)
let snap_down thresholds v =
  let r = ref min_int in
  Array.iter (fun t -> if t <= v && t > !r then r := t) thresholds;
  !r

let snap_up thresholds v =
  let r = ref max_int in
  Array.iter (fun t -> if t >= v && t < !r then r := t) thresholds;
  !r

let widen ~thresholds a b =
  match (a, hull a b) with
  | _, Bot -> Bot
  | Bot, h -> h
  | Iv a, Iv h ->
    let lo = if h.lo >= a.lo then h.lo else snap_down thresholds h.lo in
    let hi = if h.hi <= a.hi then h.hi else snap_up thresholds h.hi in
    Iv { lo; hi }

(* Saturating scalar arithmetic; min_int/max_int are absorbing. *)
let sat_add x y =
  if x = min_int || y = min_int then min_int
  else if x = max_int || y = max_int then max_int
  else
    let s = x + y in
    if x > 0 && y > 0 && s < 0 then max_int
    else if x < 0 && y < 0 && s >= 0 then min_int
    else s

let sat_neg x =
  if x = min_int then max_int else if x = max_int then min_int else -x

let sat_mul x y =
  if x = 0 || y = 0 then 0
  else if x = min_int || x = max_int || y = min_int || y = max_int then
    if (x > 0) = (y > 0) then max_int else min_int
  else
    let p = x * y in
    if p / y <> x then if (x > 0) = (y > 0) then max_int else min_int else p

let add a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv a, Iv b -> Iv { lo = sat_add a.lo b.lo; hi = sat_add a.hi b.hi }

let neg = function
  | Bot -> Bot
  | Iv a -> Iv { lo = sat_neg a.hi; hi = sat_neg a.lo }

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv a, Iv b ->
    let products =
      [
        sat_mul a.lo b.lo;
        sat_mul a.lo b.hi;
        sat_mul a.hi b.lo;
        sat_mul a.hi b.hi;
      ]
    in
    Iv
      {
        lo = List.fold_left min max_int products;
        hi = List.fold_left max min_int products;
      }

let thresholds_of_proc (prog : Prog.t) (proc : Prog.proc) =
  let acc = ref [ min_int; -1; 0; 1; max_int ] in
  List.iter
    (fun addr ->
      let i = Prog.instr prog addr in
      acc := i.Instr.imm :: !acc)
    (Prog.proc_addrs proc);
  Array.of_list (List.sort_uniq compare !acc)

(* --- environments -------------------------------------------------------- *)

type env = t array

let env_top () = Array.make Reg.count top
let env_bot () = Array.make Reg.count bot

let env_equal a b =
  let ok = ref true in
  for i = 0 to Reg.count - 1 do
    if not (equal a.(i) b.(i)) then ok := false
  done;
  !ok

let env_join ~thresholds a b =
  Array.init Reg.count (fun i -> widen ~thresholds a.(i) b.(i))

let lookup env r = if Reg.is_zero r then const 0 else env.(Reg.dense r)

let value env = function
  | Some r -> lookup env r
  | None -> top

let set env r v =
  let env' = Array.copy env in
  env'.(Reg.dense r) <- v;
  env'

(* Result ranges for opcodes with partial interval semantics. *)
let bitwise_and a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Iv a, Iv b ->
    (* For non-negative operands, [x land y <= min x y]. *)
    if a.lo >= 0 && b.lo >= 0 then Iv { lo = 0; hi = min a.hi b.hi } else top

let shift_right a =
  match a with
  | Bot -> Bot
  | Iv a when a.lo >= 0 -> Iv { lo = 0; hi = a.hi }
  | Iv _ -> top

let eval ?(call = fun ~target:_ _ -> env_top ()) env (i : Instr.t) : env =
  if i.Instr.op = Opcode.Call then call ~target:i.Instr.target env
  else
    match Instr.dest i with
    | None -> env
    | Some d ->
      let v1 () = value env i.Instr.src1 in
      let v2 () = value env i.Instr.src2 in
      let result =
        match i.Instr.op with
        | Opcode.Li -> const i.Instr.imm
        | Opcode.Mov -> v1 ()
        | Opcode.Add -> add (v1 ()) (v2 ())
        | Opcode.Sub -> sub (v1 ()) (v2 ())
        | Opcode.Addi -> add (v1 ()) (const i.Instr.imm)
        | Opcode.Mul -> mul (v1 ()) (v2 ())
        | Opcode.And -> bitwise_and (v1 ()) (v2 ())
        | Opcode.Andi -> bitwise_and (v1 ()) (const i.Instr.imm)
        | Opcode.Shr -> shift_right (v1 ())
        | Opcode.Shri -> shift_right (v1 ())
        | Opcode.Slt | Opcode.Sle | Opcode.Seq | Opcode.Sne | Opcode.Slti ->
          make 0 1
        | _ -> top
      in
      set env d result

(* --- interprocedural summaries ------------------------------------------- *)

type proc_summary = {
  may_defs : Regset.t;
  ret_env : env;
}

let opaque_summary () = { may_defs = Regset.full; ret_env = env_top () }

let call_transfer tbl ~target env =
  match Hashtbl.find_opt tbl target with
  | None -> env_top ()
  | Some s ->
    Array.init Reg.count (fun i ->
        if Regset.mem (Reg.of_dense i) s.may_defs then s.ret_env.(i)
        else env.(i))

type solution = {
  entry : env array;
  exit : env array;
}

let analyze_with ~call (prog : Prog.t) (proc : Prog.proc)
    (cfg : Sdiq_cfg.Cfg.t) : solution =
  let thresholds = thresholds_of_proc prog proc in
  (* The engine recomputes each block's in-fact fresh per visit, so the
     within-fold join alone cannot widen: when the growing predecessor
     happens to be folded first, nothing ever escapes the accumulator
     and a counting loop climbs one constant per visit until the step
     budget. Widening needs the *visit history*, kept here per block:
     each endpoint either survives or snaps to the next threshold, so
     every block's history fact changes at most a bounded number of
     times and the fixpoint terminates. *)
  let widened = Array.init (Sdiq_cfg.Cfg.num_blocks cfg) (fun _ -> env_bot ()) in
  let spec =
    {
      Dataflow.name = "interval/" ^ proc.Prog.name;
      direction = Dataflow.Forward;
      boundary = env_top ();
      init = env_bot ();
      join = env_join ~thresholds;
      equal = env_equal;
      transfer =
        (fun b env ->
          let w = env_join ~thresholds widened.(b) env in
          widened.(b) <- w;
          List.fold_left
            (fun e i -> eval ~call e i)
            w
            (Sdiq_cfg.Cfg.instrs cfg cfg.Sdiq_cfg.Cfg.blocks.(b)));
    }
  in
  let sol = Dataflow.run cfg spec in
  (* Report the widened in-facts the transfers actually ran from, not
     the engine's raw joins, so entry and exit line up. *)
  { entry = widened; exit = sol.Dataflow.exit }

let analyze ?summaries prog proc cfg =
  let call =
    match summaries with
    | Some tbl -> call_transfer tbl
    | None -> fun ~target:_ _ -> env_top ()
  in
  analyze_with ~call prog proc cfg

(* One summary recomputation for [proc] under the current table. *)
let summarize_proc tbl (prog : Prog.t) (proc : Prog.proc) : proc_summary =
  let cfg = Sdiq_cfg.Cfg.build prog proc in
  let sol = analyze_with ~call:(call_transfer tbl) prog proc cfg in
  let may_defs = ref Regset.empty in
  let ret_env = ref (env_bot ()) in
  let thresholds = thresholds_of_proc prog proc in
  Array.iteri
    (fun b (blk : Sdiq_cfg.Cfg.block) ->
      List.iter
        (fun (i : Instr.t) ->
          (match Instr.dest i with
          | Some d -> may_defs := Regset.add d !may_defs
          | None -> ());
          if i.Instr.op = Opcode.Call then
            may_defs :=
              Regset.union !may_defs
                (match Hashtbl.find_opt tbl i.Instr.target with
                | Some s -> s.may_defs
                | None -> Regset.full))
        (Sdiq_cfg.Cfg.instrs cfg blk);
      let last = Prog.instr prog blk.Sdiq_cfg.Cfg.last in
      if last.Instr.op = Opcode.Ret then
        ret_env := env_join ~thresholds !ret_env sol.exit.(b))
    cfg.Sdiq_cfg.Cfg.blocks;
  { may_defs = !may_defs; ret_env = !ret_env }

let env_leq a b =
  let ok = ref true in
  for i = 0 to Reg.count - 1 do
    if not (leq a.(i) b.(i)) then ok := false
  done;
  !ok

let summaries (prog : Prog.t) : (int, proc_summary) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  let analysable =
    List.filter
      (fun (p : Prog.proc) ->
        if p.Prog.is_library || p.Prog.len = 0 then begin
          Hashtbl.replace tbl p.Prog.entry (opaque_summary ());
          false
        end
        else begin
          (* Optimistic start: nothing defined, no exit value yet. *)
          Hashtbl.replace tbl p.Prog.entry
            { may_defs = Regset.empty; ret_env = env_bot () };
          true
        end)
      prog.Prog.procs
  in
  (* Round-robin to a fixpoint: may_defs only grows and ret_env only
     widens (finite threshold lattice), so this terminates; the cap is
     a backstop, degrading to the sound opaque summary if ever hit. *)
  let max_rounds = 100 in
  let rec iterate round =
    if round > max_rounds then
      List.iter
        (fun (p : Prog.proc) ->
          Hashtbl.replace tbl p.Prog.entry (opaque_summary ()))
        analysable
    else begin
      let changed = ref false in
      List.iter
        (fun (p : Prog.proc) ->
          let prev = Hashtbl.find tbl p.Prog.entry in
          let next = summarize_proc tbl prog p in
          (* Monotone accumulation: never lose what a previous round
             established, even if a dependency's refinement shuffles
             this round's recomputation. *)
          let merged =
            {
              may_defs = Regset.union prev.may_defs next.may_defs;
              ret_env =
                env_join
                  ~thresholds:(thresholds_of_proc prog p)
                  prev.ret_env next.ret_env;
            }
          in
          if
            not
              (Regset.equal prev.may_defs merged.may_defs
              && env_leq merged.ret_env prev.ret_env)
          then begin
            changed := true;
            Hashtbl.replace tbl p.Prog.entry merged
          end)
        analysable;
      if !changed then iterate (round + 1)
    end
  in
  iterate 1;
  tbl

let pp ppf = function
  | Bot -> Fmt.string ppf "⊥"
  | Iv { lo; hi } ->
    let e ppf v =
      if v = min_int then Fmt.string ppf "-∞"
      else if v = max_int then Fmt.string ppf "+∞"
      else Fmt.int ppf v
    in
    Fmt.pf ppf "[%a, %a]" e lo e hi
