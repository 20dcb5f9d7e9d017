(* The issue queue (Section 3.1).

   A non-collapsible circular buffer of [size] entries organised in banks
   of [bank_size]: instructions dispatch at [tail] in program order, issue
   from any slot, and an issued slot becomes a hole until [head] sweeps
   past it (no compaction, as in Folegnani & González and Buyuktosunoglu
   et al. — compaction costs too much energy). The CAM and RAM arrays of a
   bank are turned off while the bank holds no valid entry.

   The paper's addition is a second head pointer [new_head]: the compiler
   communicates [max_new_range], the number of slots the *next program
   region* may occupy, and dispatch is limited so the slot span between
   [new_head] and [tail] (holes included — the queue cannot collapse them)
   never exceeds it. When the instruction under [new_head] issues, the
   pointer moves towards the tail until it reaches a non-empty slot or
   becomes the tail (Figure 2), freeing span for more dispatch.

   Wakeup accounting implements both schemes compared in the paper:
   [wakeups_naive] charges every operand CAM in the queue on every result
   broadcast; [wakeups_gated] charges only present-and-not-ready operands
   of valid entries (Folegnani & González gating, assumed by the paper's
   example and by all techniques evaluated).

   Storage is flat (DESIGN.md §13): per-slot state lives in unboxed
   byte/int arrays instead of an array of entry records, and per-bank
   occupancy is maintained incrementally ([bank_live]) so the powered-bank
   mask costs O(banks), not O(size), per cycle.

   Wakeup and select are event-driven (DESIGN.md §13.1): neither scans
   the slots.
   - Waiter lists: each physical tag keeps the operand indices that
     dispatched waiting on it, so a broadcast visits only its consumers.
     Entries of squashed or issued slots go stale instead of being
     unlinked; a broadcast re-checks each entry (slot valid, operand
     present, not ready, same tag) before waking it, and rename resets a
     tag's list when it allocates the tag, so a list never outgrows the
     consumers dispatched since the tag's last allocation.
   - Ready list: the valid slots whose present operands are all ready,
     unordered, with a per-slot position for O(1) removal. Select orders
     it by ring distance from [head]; [young], the youngest valid slot,
     gives the extent of the oldest-first sweep the hardware performs
     (the [Select_scan] integrand) without walking it.
   - Operand counters: present, waiting (present and not ready) and
     predicted-waiting operands of valid entries, kept exact at
     dispatch, wakeup, issue and squash, so a broadcast prices all three
     Figure 8 schemes in O(1).
   The invariant checker recounts all three structures from the raw
   slot bytes every cycle. *)

type t = {
  size : int;
  bank_size : int;
  mutable active_size : int;
      (* hardware-resizable ring: the Abella/Buyuktosunoglu-style adaptive
         scheme physically restricts the circular buffer to the first
         [active_size] slots (whole banks), so the remaining banks hold no
         entries and stay off; the software scheme leaves this at [size] *)
  (* flat per-slot state: [valid] and the operand flags are bytes (0/1),
     tags and ROB back-pointers are unboxed ints; operand [j] of slot [s]
     lives at index [2*s + j] *)
  valid : Bytes.t;
  rob_idx : int array;
  op_present : Bytes.t;
  op_ready : Bytes.t;
  op_pred : Bytes.t;
      (* predicted-ready: the operand's producer has a deterministic
         latency, so a load-delay scheduler suppresses its CAM port
         (energy only — the operand still wakes on a tag match) *)
  op_tag : int array;
  bank_live : int array; (* valid entries per bank, kept incrementally *)
  bank_of : int array; (* slot -> bank, precomputed (no hot-path division) *)
  mutable live_mask : int; (* bit b set iff bank_live.(b) > 0 *)
  mutable live_banks : int; (* popcount of live_mask, kept incrementally *)
  mutable head : int;
  mutable new_head : int;
  mutable tail : int;
  mutable count : int;      (* valid entries *)
  mutable new_span : int;   (* slots between new_head and tail, holes incl. *)
  mutable suppress_pred : bool;
      (* load-delay policy active: predicted-ready waiting operands pay
         no CAM comparison (counted in [wakeups_suppressed] instead of
         [wakeups_gated]) *)
  (* event-driven wakeup/select state (see the header) *)
  mutable waiters : int array array;
      (* per physical tag: operand indices [2*s + j] that dispatched
         waiting on it; may hold stale entries, re-checked at broadcast *)
  mutable waiters_len : int array;
  ready : int array; (* ready list: slots, unordered *)
  ready_pos : int array; (* slot -> index in [ready]; -1 when absent *)
  mutable nready : int;
  mutable young : int; (* youngest valid slot; meaningless when empty *)
  mutable present_ops : int; (* present operands of valid entries *)
  mutable waiting_ops : int; (* ... of which not ready *)
  mutable pred_waiting_ops : int; (* ... of which predicted-ready *)
  (* event counters for the power model *)
  mutable wakeups_gated : int;
  mutable wakeups_suppressed : int;
  mutable wakeups_nonempty : int;
  mutable wakeups_naive : int;
  mutable dispatch_ram_writes : int;
  mutable dispatch_cam_writes : int;
  mutable issue_reads : int;
  mutable broadcasts : int;
}

let create ~size ~bank_size =
  if size <= 0 || bank_size <= 0 || bank_size > size then
    invalid_arg "Iq.create";
  {
    size;
    bank_size;
    active_size = size;
    valid = Bytes.make size '\000';
    rob_idx = Array.make size (-1);
    op_present = Bytes.make (2 * size) '\000';
    op_ready = Bytes.make (2 * size) '\000';
    op_pred = Bytes.make (2 * size) '\000';
    op_tag = Array.make (2 * size) (-1);
    bank_live = Array.make ((size + bank_size - 1) / bank_size) 0;
    bank_of = Array.init size (fun s -> s / bank_size);
    live_mask = 0;
    live_banks = 0;
    head = 0;
    new_head = 0;
    tail = 0;
    count = 0;
    new_span = 0;
    suppress_pred = false;
    waiters = [||];
    waiters_len = [||];
    ready = Array.make size 0;
    ready_pos = Array.make size (-1);
    nready = 0;
    young = 0;
    present_ops = 0;
    waiting_ops = 0;
    pred_waiting_ops = 0;
    wakeups_gated = 0;
    wakeups_suppressed = 0;
    wakeups_nonempty = 0;
    wakeups_naive = 0;
    dispatch_ram_writes = 0;
    dispatch_cam_writes = 0;
    issue_reads = 0;
    broadcasts = 0;
  }

let size t = t.size
let occupancy t = t.count
let is_empty t = t.count = 0

(* --- flat-slot accessors ------------------------------------------------- *)

let slot_valid t s = Bytes.unsafe_get t.valid s <> '\000'
let slot_rob_idx t s = Array.unsafe_get t.rob_idx s
let op_present t s j = Bytes.unsafe_get t.op_present ((2 * s) + j) <> '\000'
let op_ready t s j = Bytes.unsafe_get t.op_ready ((2 * s) + j) <> '\000'
let op_pred t s j = Bytes.unsafe_get t.op_pred ((2 * s) + j) <> '\000'
let op_tag t s j = Array.unsafe_get t.op_tag ((2 * s) + j)

(* All present operands ready (and the slot live): issueable. *)
let slot_ready t s =
  slot_valid t s
  && ((not (op_present t s 0)) || op_ready t s 0)
  && ((not (op_present t s 1)) || op_ready t s 1)

(* The tail slot is free unless the buffer has wrapped onto the head; a
   valid slot under the tail means the (non-collapsible) queue is full. *)
let is_full t = slot_valid t t.tail

(* Slots the next program region currently occupies (holes included). *)
let new_region_span t = t.new_span

(* Start a new program region: pin [new_head] to the tail (Section 3.2:
   the special NOOP's value becomes the new [max_new_range] and subsequent
   dispatches belong to the new region). *)
let start_new_region t =
  t.new_head <- t.tail;
  t.new_span <- 0

let set_slot_live t slot =
  Bytes.unsafe_set t.valid slot '\001';
  let b = Array.unsafe_get t.bank_of slot in
  let c = t.bank_live.(b) + 1 in
  t.bank_live.(b) <- c;
  if c = 1 then begin
    t.live_mask <- t.live_mask lor (1 lsl b);
    t.live_banks <- t.live_banks + 1
  end

let set_slot_free t slot =
  Bytes.unsafe_set t.valid slot '\000';
  let b = Array.unsafe_get t.bank_of slot in
  let c = t.bank_live.(b) - 1 in
  t.bank_live.(b) <- c;
  if c = 0 then begin
    t.live_mask <- t.live_mask land lnot (1 lsl b);
    t.live_banks <- t.live_banks - 1
  end

(* --- waiter lists, ready list, operand counters ------------------------- *)

(* Append operand [o] to [tag]'s waiter list, growing the tag table and
   the list on demand (both double, so appends are amortised O(1)). *)
let add_waiter t tag o =
  if tag < 0 then invalid_arg "Iq.dispatch: negative tag";
  if tag >= Array.length t.waiters_len then begin
    let n = max (tag + 1) (2 * Array.length t.waiters_len) in
    let w = Array.make n [||] and l = Array.make n 0 in
    Array.blit t.waiters 0 w 0 (Array.length t.waiters);
    Array.blit t.waiters_len 0 l 0 (Array.length t.waiters_len);
    t.waiters <- w;
    t.waiters_len <- l
  end;
  let n = Array.unsafe_get t.waiters_len tag in
  let buf = Array.unsafe_get t.waiters tag in
  let buf =
    if n < Array.length buf then buf
    else begin
      let nb = Array.make (max 4 (2 * n)) 0 in
      Array.blit buf 0 nb 0 n;
      Array.unsafe_set t.waiters tag nb;
      nb
    end
  in
  Array.unsafe_set buf n o;
  Array.unsafe_set t.waiters_len tag (n + 1)

(* Rename allocated [tag] to a new producer: every consumer of its
   previous value has issued or been squashed, so whatever the list
   still holds is stale. *)
let reset_waiters t tag =
  if tag < Array.length t.waiters_len then
    Array.unsafe_set t.waiters_len tag 0

(* Is operand [o] (index [2*s + j]) on [tag]'s waiter list? For the
   invariant checker. *)
let waits_on t ~tag o =
  tag >= 0
  && tag < Array.length t.waiters_len
  &&
  let buf = t.waiters.(tag) in
  let found = ref false in
  for i = 0 to t.waiters_len.(tag) - 1 do
    if buf.(i) = o then found := true
  done;
  !found

let ready_add t s =
  if Array.unsafe_get t.ready_pos s < 0 then begin
    Array.unsafe_set t.ready t.nready s;
    Array.unsafe_set t.ready_pos s t.nready;
    t.nready <- t.nready + 1
  end

(* Swap-remove: the ready list is unordered, select sorts it. *)
let ready_remove t s =
  let i = Array.unsafe_get t.ready_pos s in
  if i >= 0 then begin
    let last = t.nready - 1 in
    let m = Array.unsafe_get t.ready last in
    Array.unsafe_set t.ready i m;
    Array.unsafe_set t.ready_pos m i;
    Array.unsafe_set t.ready_pos s (-1);
    t.nready <- last
  end

(* Withdraw a leaving slot's operands from the counters. Its waiter-list
   entries, if any, go stale in place. *)
let release_operands t slot =
  for o = 2 * slot to (2 * slot) + 1 do
    if Bytes.unsafe_get t.op_present o <> '\000' then begin
      t.present_ops <- t.present_ops - 1;
      if Bytes.unsafe_get t.op_ready o = '\000' then begin
        t.waiting_ops <- t.waiting_ops - 1;
        if Bytes.unsafe_get t.op_pred o <> '\000' then
          t.pred_waiting_ops <- t.pred_waiting_ops - 1
      end
    end
  done

(* [slot] just left the queue: if it was the youngest entry, step
   [young] back to the next valid slot (bounded, so a tampered queue
   cannot spin). *)
let settle_young t slot =
  if slot = t.young && t.count > 0 then begin
    let p = ref slot in
    let steps = ref 0 in
    while !steps < t.active_size && not (slot_valid t !p) do
      p := (if !p = 0 then t.active_size - 1 else !p - 1);
      incr steps
    done;
    t.young <- !p
  end

(* Slots an oldest-first sweep from [head] visits before it has seen
   every valid entry: the ring distance to the youngest valid slot, plus
   one; 0 when empty. *)
let occupied_extent t =
  if t.count = 0 then 0
  else
    let d = t.young - t.head in
    (if d < 0 then d + t.active_size else d) + 1

(* Fill operand [o] of a dispatching slot: a waiting operand joins its
   tag's waiter list and the counters. *)
let dispatch_operand t o tag ready pred =
  Bytes.unsafe_set t.op_present o '\001';
  Array.unsafe_set t.op_tag o tag;
  t.present_ops <- t.present_ops + 1;
  if ready then Bytes.unsafe_set t.op_ready o '\001'
  else begin
    t.waiting_ops <- t.waiting_ops + 1;
    if pred then begin
      Bytes.unsafe_set t.op_pred o '\001';
      t.pred_waiting_ops <- t.pred_waiting_ops + 1
    end;
    add_waiter t tag o
  end

(* Dispatch into the tail slot with at most two renamed sources given
   positionally — the zero-allocation path the pipeline uses. [nsrc] is
   the instruction's true source count (capped at 2 for the CAM write
   accounting, matching the two physical operand CAMs). *)
let dispatch_flat t ~rob_idx ~nsrc ~tag0 ~ready0 ~pred0 ~tag1 ~ready1 ~pred1 =
  if is_full t then invalid_arg "Iq.dispatch: full";
  let slot = t.tail in
  set_slot_live t slot;
  Array.unsafe_set t.rob_idx slot rob_idx;
  let o = 2 * slot in
  Bytes.unsafe_set t.op_present o '\000';
  Bytes.unsafe_set t.op_present (o + 1) '\000';
  Bytes.unsafe_set t.op_ready o '\000';
  Bytes.unsafe_set t.op_ready (o + 1) '\000';
  Bytes.unsafe_set t.op_pred o '\000';
  Bytes.unsafe_set t.op_pred (o + 1) '\000';
  Array.unsafe_set t.op_tag o (-1);
  Array.unsafe_set t.op_tag (o + 1) (-1);
  if nsrc >= 1 then dispatch_operand t o tag0 ready0 pred0;
  if nsrc >= 2 then dispatch_operand t (o + 1) tag1 ready1 pred1;
  if (nsrc < 1 || ready0) && (nsrc < 2 || ready1) then ready_add t slot;
  t.young <- slot;
  t.dispatch_cam_writes <-
    t.dispatch_cam_writes + (if nsrc < 2 then nsrc else 2);
  t.dispatch_ram_writes <- t.dispatch_ram_writes + 1;
  t.tail <- (if t.tail + 1 = t.active_size then 0 else t.tail + 1);
  t.count <- t.count + 1;
  t.new_span <- t.new_span + 1;
  slot

(* List-based dispatch, for tests and callers off the hot path. [ops]
   lists (tag, ready) for the register sources; entries beyond the two
   operand CAMs are dropped. Returns the slot index. *)
let dispatch t ~rob_idx ~ops =
  match ops with
  | [] ->
    dispatch_flat t ~rob_idx ~nsrc:0 ~tag0:(-1) ~ready0:false ~pred0:false
      ~tag1:(-1) ~ready1:false ~pred1:false
  | [ (tag0, ready0) ] ->
    dispatch_flat t ~rob_idx ~nsrc:1 ~tag0 ~ready0 ~pred0:false ~tag1:(-1)
      ~ready1:false ~pred1:false
  | (tag0, ready0) :: (tag1, ready1) :: _ ->
    dispatch_flat t ~rob_idx ~nsrc:2 ~tag0 ~ready0 ~pred0:false ~tag1 ~ready1
      ~pred1:false

(* Free [slot] from every incremental structure. *)
let vacate t slot =
  set_slot_free t slot;
  Array.unsafe_set t.rob_idx slot (-1);
  t.count <- t.count - 1;
  release_operands t slot;
  ready_remove t slot

(* Remove an issued instruction from [slot], updating both head pointers
   exactly as the hardware does. Pointer sweeps are window-bounded rather
   than tail-guarded: comparing against [tail] alone cannot distinguish
   "reached the free space" from "started on a completely full ring"
   (head = tail both when empty and when wrapped full). [new_head] sweeps
   within the region's [new_span] slots; [head] sweeps to the first valid
   entry anywhere, which must exist while [count > 0]. *)
let issue t slot =
  if not (slot_valid t slot) then invalid_arg "Iq.issue: empty slot";
  vacate t slot;
  t.issue_reads <- t.issue_reads + 1;
  if slot = t.new_head then begin
    let span = t.new_span in
    let p = ref t.new_head in
    let steps = ref 0 in
    while !steps < span && not (slot_valid t !p) do
      p := (if !p + 1 = t.active_size then 0 else !p + 1);
      incr steps
    done;
    if !steps >= span then begin
      t.new_head <- t.tail;
      t.new_span <- t.new_span - span
    end
    else begin
      t.new_head <- !p;
      t.new_span <- t.new_span - !steps
    end
  end;
  (if slot = t.head then
     if t.count = 0 then t.head <- t.tail
     else begin
       let p = ref t.head in
       while not (slot_valid t !p) do
         p := (if !p + 1 = t.active_size then 0 else !p + 1)
       done;
       t.head <- !p
     end);
  settle_young t slot

(* Squash removal: free [slot] with no issue accounting and no pointer
   sweeps. A squash discards a contiguous ring suffix (the wrong-path
   dispatches behind the mispredicted branch), so the pipeline rewinds
   [tail], [head] and [new_head] once for the whole suffix instead of
   sweeping per slot; selection never reads a freed slot in between. *)
let squash_slot t slot =
  if not (slot_valid t slot) then invalid_arg "Iq.squash_slot: empty slot";
  vacate t slot;
  settle_young t slot

(* Broadcast the destination tags of all results completing this cycle.
   All tags see the same pre-wakeup snapshot, as the parallel CAM ports do
   in hardware: in Figure 1(c) instructions a and b complete together and
   each causes 6 wakeups even though they wake some of the same operands.
   Accounting: gated comparisons touch every present-and-not-ready operand
   of a valid entry, once per tag; the naive scheme compares both operand
   CAMs of every slot per tag. Returns how many operands woke.

   The snapshot is the three operand counters, so pricing costs O(1);
   the wakeups themselves walk only the broadcast tags' waiter lists.

   The first [ntags] elements of [tags] are the broadcast group (the
   pipeline reuses one array across cycles, so the hot path allocates
   nothing). *)
let broadcast_into t tags ntags =
  if ntags = 0 then 0
  else begin
    t.broadcasts <- t.broadcasts + ntags;
    t.wakeups_naive <- t.wakeups_naive + (2 * t.size * ntags);
    (* The "nonEmpty" scheme compares every operand of every allocated
       entry, ready or not; "gated" only the present-and-not-ready ones.
       Load-delay suppression is energy accounting only: predicted-ready
       waiting operands are counted as suppressed rather than gated, but
       they still wake below, so wakeup timing is policy-independent. *)
    let sup = if t.suppress_pred then t.pred_waiting_ops else 0 in
    t.wakeups_nonempty <- t.wakeups_nonempty + (t.present_ops * ntags);
    t.wakeups_gated <- t.wakeups_gated + ((t.waiting_ops - sup) * ntags);
    t.wakeups_suppressed <- t.wakeups_suppressed + (sup * ntags);
    let matched = ref 0 in
    for k = 0 to ntags - 1 do
      let tag = Array.unsafe_get tags k in
      if tag >= 0 && tag < Array.length t.waiters_len then begin
        let n = Array.unsafe_get t.waiters_len tag in
        let buf = Array.unsafe_get t.waiters tag in
        Array.unsafe_set t.waiters_len tag 0;
        for i = 0 to n - 1 do
          let o = Array.unsafe_get buf i in
          (* Stale entries (the slot left, or was refilled by an operand
             waiting elsewhere or already woken) fail this test. *)
          if
            Bytes.unsafe_get t.valid (o lsr 1) <> '\000'
            && Bytes.unsafe_get t.op_present o <> '\000'
            && Bytes.unsafe_get t.op_ready o = '\000'
            && Array.unsafe_get t.op_tag o = tag
          then begin
            Bytes.unsafe_set t.op_ready o '\001';
            incr matched;
            t.waiting_ops <- t.waiting_ops - 1;
            if Bytes.unsafe_get t.op_pred o <> '\000' then
              t.pred_waiting_ops <- t.pred_waiting_ops - 1;
            let m = o lxor 1 in
            if
              Bytes.unsafe_get t.op_present m = '\000'
              || Bytes.unsafe_get t.op_ready m <> '\000'
            then ready_add t (o lsr 1)
          end
        done
      end
    done;
    !matched
  end

(* Fold over valid entries from oldest (head) to youngest (tail), the order
   the select logic prefers. The callback receives the slot index; use the
   slot accessors for its state. *)
let fold_oldest_first t f acc =
  let acc = ref acc in
  let pos = ref t.head in
  let remaining = ref t.count in
  let steps = ref 0 in
  while !remaining > 0 && !steps < t.active_size do
    if slot_valid t !pos then begin
      acc := f !acc !pos;
      decr remaining
    end;
    pos := (if !pos + 1 = t.active_size then 0 else !pos + 1);
    incr steps
  done;
  !acc

(* Adaptive resizing (the abella comparison point): restrict or extend the
   ring to [target] slots, whole banks at a time. A resize only takes
   effect when it is safe — shrinking needs every live entry and pointer
   inside the surviving region; growing needs the live region not to wrap
   (so the modulus change keeps it contiguous). Callers simply retry every
   cycle, which models the scheme's inherent adjustment lag. Returns true
   when the resize (or part of it, one step toward the target) applied. *)
let resize t target =
  let target =
    let banked = max t.bank_size (min t.size target) in
    banked / t.bank_size * t.bank_size
  in
  if target = t.active_size then false
  else if t.count = 0 then begin
    t.head <- 0;
    t.new_head <- 0;
    t.tail <- 0;
    t.new_span <- 0;
    t.active_size <- target;
    true
  end
  else begin
    (* Any modulus change invalidates [new_span]: the region is the
       circular slot range [new_head, tail), and changing [active_size]
       inserts (grow) or removes (shrink) the run of slots between the
       old boundary and slot 0 — inside the region whenever it wraps.
       Re-derive the span from the pointers under the new modulus; the
       pre-resize span disambiguates [tail = new_head], which means a
       full ring when the span was non-zero and an empty region
       otherwise. *)
    let respan target =
      if t.new_span = 0 then 0
      else (((t.tail - t.new_head - 1) + target) mod target) + 1
    in
    if target > t.active_size then begin
      (* Growing inserts a run of empty slots between the oldest entries
         (at and after [head]) and any wrapped younger ones (before
         [tail]); pointer sweeps skip holes, so circular order is
         preserved. *)
      t.new_span <- respan target;
      t.active_size <- target;
      true
    end
    else begin
      (* Shrinking is safe only once the dropped banks hold nothing and
         all three pointers are inside the surviving region. *)
      let clear =
        ref (t.head < target && t.new_head < target && t.tail < target)
      in
      for s = target to t.active_size - 1 do
        if slot_valid t s then clear := false
      done;
      if !clear then begin
        t.new_span <- respan target;
        t.active_size <- target;
        true
      end
      else false
    end
  end

let active_size t = t.active_size

(* Banks holding at least one valid entry: only these have their CAM/RAM
   arrays powered. *)
let banks t = (t.size + t.bank_size - 1) / t.bank_size

let banks_on_mask t = t.live_mask
let banks_on t = t.live_banks

(* Recount of the powered banks from the raw valid bytes, bypassing the
   incremental [bank_live] counters: the invariant checker audits the
   fast counters against this. *)
let recount_banks_on t =
  let nb = banks t in
  let on = ref 0 in
  for b = 0 to nb - 1 do
    let lo = b * t.bank_size in
    let hi = min t.size (lo + t.bank_size) - 1 in
    let any = ref false in
    for s = lo to hi do
      if slot_valid t s then any := true
    done;
    if !any then incr on
  done;
  !on

(* Test-only state tampering: mutate raw slot state with *no*
   bookkeeping, simulating hardware corruption the invariant checker must
   catch. Each function breaks exactly one structure. *)
module Raw = struct
  (* [count], [bank_live], pointers, counters and lists left stale. *)
  let set_valid t s v = Bytes.set t.valid s (if v then '\001' else '\000')

  (* The operand counters follow the flipped mark, as a recount would:
     the sabotage targets the mark's soundness, not the counters. *)
  let set_pred t s j v =
    let o = (2 * s) + j in
    let was = Bytes.get t.op_pred o <> '\000' in
    if
      was <> v && slot_valid t s
      && Bytes.get t.op_present o <> '\000'
      && Bytes.get t.op_ready o = '\000'
    then
      t.pred_waiting_ops <- (t.pred_waiting_ops + if v then 1 else -1);
    Bytes.set t.op_pred o (if v then '\001' else '\000')

  (* Counters left stale. *)
  let set_ready t s j v =
    Bytes.set t.op_ready ((2 * s) + j) (if v then '\001' else '\000')

  let drop_ready t s = ready_remove t s
  let clear_waiters t tag = reset_waiters t tag
end
