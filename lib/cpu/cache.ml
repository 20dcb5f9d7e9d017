(* Set-associative cache with LRU replacement.

   The simulator only needs latencies, not data: [access] returns whether
   the line was present and installs it. Timing of misses under
   contention is simplified to fixed latencies (no MSHR/bandwidth model),
   which is the usual academic-simulator treatment and is identical across
   the techniques being compared. *)

type t = {
  sets : int;
  ways : int;
  line : int;       (* bytes *)
  line_shift : int; (* log2 line when [line] and [sets] are powers of
                       two, else -1 *)
  tags : int array;      (* sets * ways, -1 = invalid *)
  last_use : int array;  (* LRU stamps *)
  fill_time : int array; (* cycle at which the line's data arrives *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

type outcome =
  | Hit
  | Inflight of int (* remaining cycles until the line's fill completes *)
  | Miss

let is_pow2 n = n land (n - 1) = 0

let create ~sets ~ways ~line =
  if sets <= 0 || ways <= 0 || line <= 0 then invalid_arg "Cache.create";
  let rec log2 s n = if n = 1 then s else log2 (s + 1) (n lsr 1) in
  {
    sets;
    ways;
    line;
    line_shift = (if is_pow2 line && is_pow2 sets then log2 0 line else -1);
    tags = Array.make (sets * ways) (-1);
    last_use = Array.make (sets * ways) 0;
    fill_time = Array.make (sets * ways) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let hits t = t.hits
let misses t = t.misses

(* The line number and set of byte address [addr]. A power-of-two
   geometry shifts and masks. The shift is exact for [addr >= 0] only: a
   negative address keeps the division, whose truncation toward zero
   differs from [asr]. The mask is the normalised [mod] for any line. *)
let line_key t addr =
  if t.line_shift >= 0 && addr >= 0 then addr lsr t.line_shift
  else addr / t.line

let set_of t line_addr =
  if t.line_shift >= 0 then line_addr land (t.sets - 1)
  else
    let m = line_addr mod t.sets in
    if m < 0 then m + t.sets else m

(* [probe t ~now addr]: tag-match the line. A miss installs it (LRU
   eviction) with fill time [now]; the caller is expected to push the fill
   time out with [set_fill] once it knows the total miss latency, so later
   accesses to the still-in-flight line see [Inflight] rather than a free
   hit — an MSHR-style merge, without which dependent-pointer chases would
   wrongly ride on their own line fills. *)
let probe t ~now addr =
  let line_addr = line_key t addr in
  let set = set_of t line_addr in
  let tag = line_addr in
  t.clock <- t.clock + 1;
  let base = set * t.ways in
  (* Closure-free tag match: this runs for every fetch cycle, load issue
     and store commit. *)
  let w = ref 0 in
  while !w < t.ways && t.tags.(base + !w) <> tag do
    incr w
  done;
  if !w < t.ways then begin
    let slot = base + !w in
    t.last_use.(slot) <- t.clock;
    if t.fill_time.(slot) > now then begin
      t.misses <- t.misses + 1;
      Inflight (t.fill_time.(slot) - now)
    end
    else begin
      t.hits <- t.hits + 1;
      Hit
    end
  end
  else begin
    t.misses <- t.misses + 1;
    (* Evict LRU. *)
    let victim = ref 0 in
    for w = 1 to t.ways - 1 do
      if t.last_use.(base + w) < t.last_use.(base + !victim) then victim := w
    done;
    t.tags.(base + !victim) <- tag;
    t.last_use.(base + !victim) <- t.clock;
    t.fill_time.(base + !victim) <- now;
    Miss
  end

(* Record when the just-missed line's data will arrive. *)
let set_fill t addr time =
  let line_addr = line_key t addr in
  let set = set_of t line_addr in
  let base = set * t.ways in
  for w = 0 to t.ways - 1 do
    if t.tags.(base + w) = line_addr then t.fill_time.(base + w) <- time
  done

(* Untimed access: true on (settled) hit; misses install instantly. Used
   by unit tests and by accesses whose latency is not modelled. *)
let access t addr =
  match probe t ~now:0 addr with
  | Hit -> true
  | Inflight _ | Miss -> false

let contents t =
  Array.init (t.sets * t.ways) (fun i -> (t.tags.(i), t.last_use.(i)))
