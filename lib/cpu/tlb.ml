(* Translation lookaside buffer: a small fully-associative cache of
   page translations with true-LRU replacement. The simulated ISA is
   flat-addressed, so no translation result is modelled — only the
   hit/miss timing and the miss traffic the power model prices. Two
   instances back the pipeline: an ITLB probed once per fetch-group
   page and a DTLB probed at load/store issue.

   Storage follows the flat hot-loop idiom (DESIGN.md §13): parallel
   int arrays for tags and last-use stamps, linear probe (the paper's
   machines hold 16 entries — a scan beats any map). *)

type t = {
  entries : int;
  page_size : int;          (* words per page; must be a power of two *)
  page_shift : int;
  tags : int array;         (* virtual page number, -1 when empty *)
  stamps : int array;       (* last-use clock for LRU *)
  mutable mru : int;
      (* the entry the last access hit or installed; -1 before any *)
  mutable clock : int;
  mutable lookups : int;
  mutable misses : int;
}

let create ~entries ~page_size =
  if entries <= 0 then invalid_arg "Tlb.create: entries";
  if page_size <= 0 || page_size land (page_size - 1) <> 0 then
    invalid_arg "Tlb.create: page_size must be a power of two";
  let shift =
    let rec go s n = if n = 1 then s else go (s + 1) (n lsr 1) in
    go 0 page_size
  in
  {
    entries;
    page_size;
    page_shift = shift;
    tags = Array.make entries (-1);
    stamps = Array.make entries 0;
    mru = -1;
    clock = 0;
    lookups = 0;
    misses = 0;
  }

let page_of t addr = addr asr t.page_shift

(* Probe for [addr]'s page; on a miss, install it over the LRU entry.
   Returns [true] on a hit. The most recently used entry is checked
   before the scan. That is exact: a real page occupies at most one
   entry, and only the empty entries' initial -1 tags repeat — page -1
   resolves to the scan's last match, and [mru] is only ever an entry an
   access actually chose. *)
let access t addr =
  let page = page_of t addr in
  t.clock <- t.clock + 1;
  t.lookups <- t.lookups + 1;
  let hit =
    let m = t.mru in
    if m >= 0 && Array.unsafe_get t.tags m = page then m
    else begin
      let hit = ref (-1) in
      for i = 0 to t.entries - 1 do
        if Array.unsafe_get t.tags i = page then hit := i
      done;
      !hit
    end
  in
  if hit >= 0 then begin
    Array.unsafe_set t.stamps hit t.clock;
    t.mru <- hit;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = ref 0 in
    for i = 1 to t.entries - 1 do
      if Array.unsafe_get t.stamps i < Array.unsafe_get t.stamps !victim then
        victim := i
    done;
    Array.unsafe_set t.tags !victim page;
    Array.unsafe_set t.stamps !victim t.clock;
    t.mru <- !victim;
    false
  end

(* Warm the entry for [addr], discarding the hit/miss outcome: used by
   the sampling fast-forward, which must train the TLB exactly as
   detailed fetch/issue would but emits no events. *)
let train t addr = ignore (access t addr : bool)

let contents t = Array.init t.entries (fun i -> (t.tags.(i), t.stamps.(i)))

let lookups t = t.lookups
let misses t = t.misses
