(* Load/store queue: a program-ordered ring of in-flight memory
   operations, allocated speculatively at dispatch (wrong-path loads
   and stores claim entries too, per the speculative-allocation
   discipline of arXiv 2311.08198) and reclaimed from the head at
   commit or from the tail at squash — so the ring is always a
   contiguous program-order window and an age search is a walk.

   Store-to-load forwarding is age-ordered: a load searches backwards
   from its own slot toward the head, and the first matching store it
   meets is by construction the youngest older one. Addresses are
   exact at allocation (the execution-driven frontend computes them at
   fetch), so no late disambiguation pass is needed.

   Storage is flat (DESIGN.md §13): parallel unboxed arrays, byte
   flags, no allocation on any hot path. *)

type t = {
  size : int;
  rob_idxs : int array;     (* owning ROB entry; -1 when the slot is free *)
  addrs : int array;
  store : Bytes.t;          (* 1 = store, 0 = load *)
  wp : Bytes.t;             (* allocated down the wrong path *)
  mutable head : int;
  mutable tail : int;
  mutable count : int;
}

let create ~size =
  if size <= 0 then invalid_arg "Lsq.create";
  {
    size;
    rob_idxs = Array.make size (-1);
    addrs = Array.make size 0;
    store = Bytes.make size '\000';
    wp = Bytes.make size '\000';
    head = 0;
    tail = 0;
    count = 0;
  }

let is_full t = t.count = t.size
let count t = t.count

let is_store t slot = Bytes.unsafe_get t.store slot = '\001'
let is_wp t slot = Bytes.unsafe_get t.wp slot <> '\000'

(* Allocate the tail slot; returns its index. *)
let push t ~rob_idx ~addr ~is_store ~wp =
  if is_full t then invalid_arg "Lsq.push: full";
  let slot = t.tail in
  Array.unsafe_set t.rob_idxs slot rob_idx;
  Array.unsafe_set t.addrs slot addr;
  Bytes.unsafe_set t.store slot (if is_store then '\001' else '\000');
  Bytes.unsafe_set t.wp slot (if wp then '\001' else '\000');
  t.tail <- (if t.tail + 1 = t.size then 0 else t.tail + 1);
  t.count <- t.count + 1;
  slot

(* The youngest store older than the entry at [slot] whose address
   matches [a]; returns its ROB index, or -1 when none. Walking
   backwards toward the head meets entries youngest-first. *)
let youngest_older_store t slot a =
  let res = ref (-1) in
  let pos = ref slot in
  let steps =
    ref
      (let d = slot - t.head in
       if d < 0 then d + t.size else d)
  in
  while !res < 0 && !steps > 0 do
    pos := (if !pos = 0 then t.size - 1 else !pos - 1);
    decr steps;
    if
      Bytes.unsafe_get t.store !pos = '\001'
      && Array.unsafe_get t.addrs !pos = a
    then res := Array.unsafe_get t.rob_idxs !pos
  done;
  !res

(* Reclaim the head entry at commit; [rob_idx] guards that commit
   order and queue order agree. *)
let pop_head t ~rob_idx =
  if t.count = 0 then invalid_arg "Lsq.pop_head: empty";
  if Array.unsafe_get t.rob_idxs t.head <> rob_idx then
    invalid_arg "Lsq.pop_head: head entry belongs to a different instruction";
  Array.unsafe_set t.rob_idxs t.head (-1);
  t.head <- (if t.head + 1 = t.size then 0 else t.head + 1);
  t.count <- t.count - 1

(* Reclaim the tail entry at squash (youngest-first walk pops tails). *)
let pop_tail t ~rob_idx =
  if t.count = 0 then invalid_arg "Lsq.pop_tail: empty";
  let slot = if t.tail = 0 then t.size - 1 else t.tail - 1 in
  if Array.unsafe_get t.rob_idxs slot <> rob_idx then
    invalid_arg "Lsq.pop_tail: tail entry belongs to a different instruction";
  Array.unsafe_set t.rob_idxs slot (-1);
  t.tail <- slot;
  t.count <- t.count - 1

(* Iterate oldest → youngest; [f slot rob_idx] sees live entries only. *)
let iter_oldest_first t f =
  let pos = ref t.head in
  for _ = 1 to t.count do
    f !pos (Array.unsafe_get t.rob_idxs !pos);
    pos := (if !pos + 1 = t.size then 0 else !pos + 1)
  done
