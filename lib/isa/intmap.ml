(* Paged int-keyed int map for the oracle's data memory.

   Addresses are byte addresses and the kernels touch words, so a
   word-aligned key ([k land 3 = 0]) lives in a dense page of
   [page_words] cells: a load is a compare against the most recently
   used page and one array read, with neighbouring addresses in
   neighbouring cells. Pages are found through a page directory (open
   addressing by page number) and never freed. Any other key — random
   fuzz programs use unaligned and negative addresses, and [min_int] —
   goes to a small open-addressing residue table with key and value
   interleaved in one array. The map is total over arbitrary ints.

   Presence is tracked per cell (an overlay falls through to its base at
   exactly the cells it never wrote), and an absent cell holds 0, so a
   [~default:0] lookup of a page cell is one read. Every new binding is
   logged: [count] is the log's length, [iter] walks it, and [clear]
   unbinds exactly the logged keys — O(bindings), with pages, directory
   and log kept, so a warm map clears and refills without allocating.
   Lookups never allocate. *)

let page_bits = 10
let page_words = 1 lsl page_bits

type page = {
  no : int;          (* page number, [k asr (page_bits + 2)] *)
  vals : int array;  (* [page_words] cells, 0 when absent *)
  present : Bytes.t; (* '\001' when the cell is bound *)
}

(* The empty directory slot. [min_int] is no key's page number: an
   arithmetic shift by 12 never yields it. *)
let no_page = { no = min_int; vals = [||]; present = Bytes.empty }

type t = {
  mutable dir : page array;   (* power-of-two capacity, [no_page] = empty *)
  mutable npages : int;
  mutable mru : page;         (* the last page looked up, or [no_page] *)
  mutable res : int array;
      (* residue table: key at [2i], value at [2i + 1]; key 0 (aligned,
         so never a residue key) marks an empty slot *)
  mutable rcount : int;
  mutable log : int array;    (* bound keys, in binding order *)
  mutable count : int;
}

let create n =
  {
    dir = Array.make 16 no_page;
    npages = 0;
    mru = no_page;
    res = Array.make 32 0;
    rcount = 0;
    log = Array.make (if n < 16 then 16 else n) 0;
    count = 0;
  }

let page_no k = k asr (page_bits + 2)
let cell k = (k lsr 2) land (page_words - 1)

(* Multiplicative hash with the high bits folded down, so that keys
   differing only above the mask still spread. *)
let hash k =
  let h = k * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

(* --- pages ---------------------------------------------------------------- *)

let dir_index dir p =
  let mask = Array.length dir - 1 in
  let i = ref (hash p land mask) in
  while
    let pg = Array.unsafe_get dir !i in
    pg.no <> p && pg != no_page
  do
    i := (!i + 1) land mask
  done;
  !i

(* The page numbered [p], or [no_page]; a found page becomes the MRU. *)
let page t p =
  let pg = t.mru in
  if pg.no = p then pg
  else begin
    let pg = Array.unsafe_get t.dir (dir_index t.dir p) in
    if pg != no_page then t.mru <- pg;
    pg
  end

let rec page_for_write t p =
  let pg = page t p in
  if pg != no_page then pg
  else if 2 * (t.npages + 1) > Array.length t.dir then begin
    (* Keep the directory under half full: rehash into double. *)
    let old = t.dir in
    t.dir <- Array.make (2 * Array.length old) no_page;
    Array.iter
      (fun pg -> if pg != no_page then t.dir.(dir_index t.dir pg.no) <- pg)
      old;
    page_for_write t p
  end
  else begin
    let pg =
      {
        no = p;
        vals = Array.make page_words 0;
        present = Bytes.make page_words '\000';
      }
    in
    t.dir.(dir_index t.dir p) <- pg;
    t.npages <- t.npages + 1;
    t.mru <- pg;
    pg
  end

(* --- residue table -------------------------------------------------------- *)

(* The slot holding [k], or the empty slot where it would go. *)
let res_slot res k =
  let mask = (Array.length res / 2) - 1 in
  let i = ref (hash k land mask) in
  while
    let key = Array.unsafe_get res (2 * !i) in
    key <> k && key <> 0
  do
    i := (!i + 1) land mask
  done;
  !i

let res_grow t =
  let old = t.res in
  t.res <- Array.make (2 * Array.length old) 0;
  for i = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * i) in
    if k <> 0 then begin
      let j = res_slot t.res k in
      t.res.(2 * j) <- k;
      t.res.((2 * j) + 1) <- old.((2 * i) + 1)
    end
  done

(* --- the map -------------------------------------------------------------- *)

let log_key t k =
  if t.count = Array.length t.log then begin
    let log = Array.make (2 * t.count) 0 in
    Array.blit t.log 0 log 0 t.count;
    t.log <- log
  end;
  Array.unsafe_set t.log t.count k;
  t.count <- t.count + 1

let find t k ~default =
  if k land 3 = 0 then begin
    let pg = page t (page_no k) in
    if pg == no_page then default
    else
      let o = cell k in
      let v = Array.unsafe_get pg.vals o in
      if v <> 0 || Bytes.unsafe_get pg.present o <> '\000' then v else default
  end
  else
    let i = res_slot t.res k in
    if Array.unsafe_get t.res (2 * i) = k then
      Array.unsafe_get t.res ((2 * i) + 1)
    else default

let rec replace t k v =
  if k land 3 = 0 then begin
    let pg = page_for_write t (page_no k) in
    let o = cell k in
    if Bytes.unsafe_get pg.present o = '\000' then begin
      Bytes.unsafe_set pg.present o '\001';
      log_key t k
    end;
    Array.unsafe_set pg.vals o v
  end
  else begin
    let i = res_slot t.res k in
    if t.res.(2 * i) = k then t.res.((2 * i) + 1) <- v
    else if 2 * (t.rcount + 1) > Array.length t.res / 2 then begin
      res_grow t;
      replace t k v
    end
    else begin
      t.res.(2 * i) <- k;
      t.res.((2 * i) + 1) <- v;
      t.rcount <- t.rcount + 1;
      log_key t k
    end
  end

let mem t k =
  if k land 3 = 0 then begin
    let pg = page t (page_no k) in
    pg != no_page && Bytes.unsafe_get pg.present (cell k) <> '\000'
  end
  else t.res.(2 * res_slot t.res k) = k

let clear t =
  for j = 0 to t.count - 1 do
    let k = t.log.(j) in
    if k land 3 = 0 then begin
      let pg = page t (page_no k) in
      let o = cell k in
      pg.vals.(o) <- 0;
      Bytes.set pg.present o '\000'
    end
    else begin
      (* Empty the cluster from [k]'s home slot on. Every key in it is
         being unbound, and no key still bound probes through it: a
         chain starting inside the run ends inside it. *)
      let mask = (Array.length t.res / 2) - 1 in
      let i = ref (hash k land mask) in
      while t.res.(2 * !i) <> 0 do
        t.res.(2 * !i) <- 0;
        t.res.((2 * !i) + 1) <- 0;
        i := (!i + 1) land mask
      done
    end
  done;
  t.count <- 0;
  t.rcount <- 0

let count t = t.count

let iter f t =
  for j = 0 to t.count - 1 do
    let k = t.log.(j) in
    f k (find t k ~default:0)
  done
