(* Branch prediction, per Table 1: a hybrid of a 2K-entry gshare and a
   2K-entry bimodal predictor arbitrated by a 1K-entry selector, a 2048-
   entry 4-way BTB, and a return-address stack.

   Two-bit saturating counters throughout; the selector counter moves
   toward the component that was correct when they disagree. *)

type t = {
  bimodal : int array;
  gshare : int array;
  selector : int array;
  gshare_hist_bits : int;
  mutable history : int;
  (* index masks: [size - 1] when the table size is a power of two (the
     Table 1 configuration), else [-1] and indexing falls back to [mod] *)
  bimodal_mask : int;
  gshare_mask : int;
  selector_mask : int;
  (* BTB: sets x ways of (pc tag, target, lru) *)
  btb_sets : int;
  btb_mask : int; (* set-index mask, as the table masks above *)
  btb_ways : int;
  btb_tag : int array;
  btb_target : int array;
  btb_lru : int array;
  mutable btb_clock : int;
  ras : int array;
  ras_size : int;
  mutable ras_top : int; (* number of valid entries *)
}

let pow2_mask n = if n > 0 && n land (n - 1) = 0 then n - 1 else -1

let create (cfg : Config.t) =
  {
    bimodal = Array.make cfg.Config.bimodal_size 1; (* weakly not-taken *)
    gshare = Array.make cfg.Config.gshare_size 1;
    selector = Array.make cfg.Config.selector_size 1;
    gshare_hist_bits = cfg.Config.gshare_hist;
    history = 0;
    bimodal_mask = pow2_mask cfg.Config.bimodal_size;
    gshare_mask = pow2_mask cfg.Config.gshare_size;
    selector_mask = pow2_mask cfg.Config.selector_size;
    btb_sets = cfg.Config.btb_sets;
    btb_mask = pow2_mask cfg.Config.btb_sets;
    btb_ways = cfg.Config.btb_ways;
    btb_tag = Array.make (cfg.Config.btb_sets * cfg.Config.btb_ways) (-1);
    btb_target = Array.make (cfg.Config.btb_sets * cfg.Config.btb_ways) (-1);
    btb_lru = Array.make (cfg.Config.btb_sets * cfg.Config.btb_ways) 0;
    btb_clock = 0;
    ras = Array.make cfg.Config.ras_size 0;
    ras_size = cfg.Config.ras_size;
    ras_top = 0;
  }

(* pcs are program indices (≥ 0), so masking is exactly [mod] for
   power-of-two tables. *)
let bimodal_idx t pc =
  if t.bimodal_mask >= 0 then pc land t.bimodal_mask
  else pc mod Array.length t.bimodal

let gshare_idx t pc =
  let h = pc lxor (t.history land ((1 lsl t.gshare_hist_bits) - 1)) in
  if t.gshare_mask >= 0 then h land t.gshare_mask
  else h mod Array.length t.gshare

let selector_idx t pc =
  if t.selector_mask >= 0 then pc land t.selector_mask
  else pc mod Array.length t.selector

let counter_taken c = c >= 2

(* Predict the direction of the conditional branch at [pc]. *)
let predict_direction t pc =
  let b = counter_taken t.bimodal.(bimodal_idx t pc) in
  let g = counter_taken t.gshare.(gshare_idx t pc) in
  if counter_taken t.selector.(selector_idx t pc) then g else b

let bump arr i taken =
  let c = arr.(i) in
  if taken then (if c < 3 then arr.(i) <- c + 1)
  else if c > 0 then arr.(i) <- c - 1

(* Update direction predictors and global history with the outcome. *)
let update_direction t pc ~taken =
  let bi = bimodal_idx t pc and gi = gshare_idx t pc in
  let b_ok = counter_taken t.bimodal.(bi) = taken in
  let g_ok = counter_taken t.gshare.(gi) = taken in
  let si = selector_idx t pc in
  (* Selector trains toward the correct component when they disagree. *)
  if b_ok <> g_ok then bump t.selector si g_ok;
  bump t.bimodal bi taken;
  bump t.gshare gi taken;
  t.history <- ((t.history lsl 1) lor (if taken then 1 else 0))
               land ((1 lsl t.gshare_hist_bits) - 1)

let btb_base t pc =
  (if t.btb_mask >= 0 then pc land t.btb_mask else pc mod t.btb_sets)
  * t.btb_ways

(* The way of [base]'s set holding [pc], or [btb_ways] when none does. *)
let btb_find t base pc =
  let w = ref 0 in
  while !w < t.btb_ways && t.btb_tag.(base + !w) <> pc do
    incr w
  done;
  !w

(* BTB lookup: the predicted target of the control instruction at [pc],
   or [-1] on a BTB miss (stored targets are program addresses, ≥ 0).
   Lookup and update allocate nothing — the pipeline's fetch loop and
   fast-forward call them per control instruction. *)
let btb_lookup_tgt t pc =
  let base = btb_base t pc in
  let w = btb_find t base pc in
  if w < t.btb_ways then begin
    t.btb_clock <- t.btb_clock + 1;
    t.btb_lru.(base + w) <- t.btb_clock;
    t.btb_target.(base + w)
  end
  else -1

let btb_update t pc ~target =
  let base = btb_base t pc in
  t.btb_clock <- t.btb_clock + 1;
  let w = btb_find t base pc in
  let w =
    if w < t.btb_ways then w
    else begin
      let victim = ref 0 in
      for w = 1 to t.btb_ways - 1 do
        if t.btb_lru.(base + w) < t.btb_lru.(base + !victim) then victim := w
      done;
      !victim
    end
  in
  t.btb_tag.(base + w) <- pc;
  t.btb_target.(base + w) <- target;
  t.btb_lru.(base + w) <- t.btb_clock

(* Return-address stack. Overflow wraps (oldest entries are lost), as in
   real hardware. *)
let ras_push t addr =
  if t.ras_top < t.ras_size then begin
    t.ras.(t.ras_top) <- addr;
    t.ras_top <- t.ras_top + 1
  end
  else begin
    (* Shift down: drop the oldest. *)
    Array.blit t.ras 1 t.ras 0 (t.ras_size - 1);
    t.ras.(t.ras_size - 1) <- addr
  end

(* Pop, or [-1] when empty (return addresses are ≥ 1: fallthrough of a
   call). Allocation-free. *)
let ras_pop_addr t =
  if t.ras_top = 0 then -1
  else begin
    t.ras_top <- t.ras_top - 1;
    t.ras.(t.ras_top)
  end

(* RAS snapshot/restore for the speculative fetch frontend: wrong-path
   calls and returns push and pop the real stack (their predictions must
   see the speculative top), and the squash rewinds it to the snapshot
   taken when the mispredict was detected. The caller owns the buffer
   ([ras_size] entries) so episodes allocate nothing. *)
let ras_save t buf =
  Array.blit t.ras 0 buf 0 t.ras_size;
  t.ras_top

let ras_restore t buf top =
  Array.blit buf 0 t.ras 0 t.ras_size;
  t.ras_top <- top
