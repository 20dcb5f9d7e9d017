(* The oracle's paged memory and the exact fast paths of the warming
   layers: each is pinned against a plain reference — a [Hashtbl] for
   [Intmap], the division-and-scan code for the cache and TLB indexing —
   over random operation sequences that include the keys and addresses
   where the fast path differs from the slow one (negative, unaligned,
   [min_int]/[max_int], page boundaries, page -1). Plus the allocation
   budgets of fast-forward, the wrong-path overlay's restart and the
   observed path's sinks. *)

open Sdiq_isa
module P = Sdiq_cpu.Pipeline
module Cache = Sdiq_cpu.Cache
module Tlb = Sdiq_cpu.Tlb

(* --- Intmap against a Hashtbl model ------------------------------------ *)

(* A page holds 1024 words = 4096 byte addresses. *)
let special_keys =
  [|
    0; 4; -4; 1; -1; 2; 3; -3; min_int; max_int; min_int + 4; max_int - 3;
    4092; 4096; 4100; 4095; 4097; -4092; -4096; -4100; -4097; 8188; 8192;
  |]

let key_gen =
  QCheck.Gen.(
    frequency
      [
        (3, oneofa special_keys);
        (* either side of a page boundary, aligned or not *)
        ( 4,
          map2 (fun p o -> (p * 4096) + o) (int_range (-40) 40)
            (int_range (-9) 9) );
        (1, int);
      ])

type op = Replace of int * int | Find of int | Mem of int | Clear | Check

let pp_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Clear -> "clear"
  | Check -> "check"

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun k v -> Replace (k, v)) key_gen (int_range (-3) 3));
        (4, map (fun k -> Find k) key_gen);
        (2, map (fun k -> Mem k) key_gen);
        (1, return Clear);
        (1, return Check);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 0 400) op_gen)

let sorted_bindings iter =
  let acc = ref [] in
  iter (fun k v -> acc := (k, v) :: !acc);
  List.sort compare !acc

let intmap_matches_model =
  QCheck.Test.make ~count:300 ~name:"Intmap agrees with a Hashtbl model"
    ops_arb (fun ops ->
      let m = Intmap.create 4 and h = Hashtbl.create 16 in
      let same () =
        Intmap.count m = Hashtbl.length h
        && sorted_bindings (fun f -> Intmap.iter f m)
           = sorted_bindings (fun f -> Hashtbl.iter f h)
      in
      List.for_all
        (fun op ->
          match op with
          | Replace (k, v) ->
            Intmap.replace m k v;
            Hashtbl.replace h k v;
            true
          | Find k ->
            Intmap.find m k ~default:(-7)
            = Option.value (Hashtbl.find_opt h k) ~default:(-7)
          | Mem k -> Intmap.mem m k = Hashtbl.mem h k
          | Clear ->
            Intmap.clear m;
            Hashtbl.reset h;
            true
          | Check -> same ())
        ops
      && same ())

(* The overlay over the paged memory: across several restarts, a load
   reads the episode's own store where it made one and the base's value
   everywhere else — a value stored in an earlier episode, to the same
   page or cell, never survives. *)
let overlay_falls_through =
  let episode_gen =
    QCheck.Gen.(list_size (int_range 0 30) (pair key_gen (int_range 1 9)))
  in
  QCheck.Test.make ~count:200 ~name:"overlay falls through across restarts"
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 0 40) (pair key_gen small_int))
                     (list_size (int_range 1 6) episode_gen)))
    (fun (base_writes, episodes) ->
      let b = Asm.create () in
      Asm.halt (Asm.proc b "main");
      let base = Exec.create (Asm.assemble b ~entry:"main") in
      List.iter (fun (k, v) -> Exec.poke base k v) base_writes;
      let ov = Exec.overlay base in
      let probe = List.map fst base_writes in
      List.for_all
        (fun writes ->
          Exec.restart ov ~pc:0 ~steps:0;
          let own = Hashtbl.create 8 in
          List.iter
            (fun (k, v) ->
              Exec.poke ov k v;
              Hashtbl.replace own k v)
            writes;
          List.for_all
            (fun k ->
              let want =
                match Hashtbl.find_opt own k with
                | Some v -> v
                | None -> Exec.peek base k
              in
              Exec.peek ov k = want)
            (probe @ List.map fst writes @ Array.to_list special_keys))
        episodes)

(* --- Cache and TLB against the division-and-scan reference ------------ *)

(* [Cache]'s probe as it was before the shift-and-mask fast path:
   truncating division for the line, normalised [mod] for the set. *)
module Ref_cache = struct
  type t = {
    sets : int;
    ways : int;
    line : int;
    tags : int array;
    last_use : int array;
    fill_time : int array;
    mutable clock : int;
  }

  let create ~sets ~ways ~line =
    let n = sets * ways in
    {
      sets;
      ways;
      line;
      tags = Array.make n (-1);
      last_use = Array.make n 0;
      fill_time = Array.make n 0;
      clock = 0;
    }

  let set_base t addr =
    let l = addr / t.line in
    (l, (((l mod t.sets) + t.sets) mod t.sets) * t.ways)

  (* [-1] miss, [0] hit, [r > 0] in flight for [r] more cycles. *)
  let probe t ~now addr =
    let tag, base = set_base t addr in
    t.clock <- t.clock + 1;
    let hit = ref (-1) in
    for w = t.ways - 1 downto 0 do
      if t.tags.(base + w) = tag then hit := w
    done;
    if !hit >= 0 then begin
      let s = base + !hit in
      t.last_use.(s) <- t.clock;
      if t.fill_time.(s) > now then t.fill_time.(s) - now else 0
    end
    else begin
      let v = ref 0 in
      for w = 1 to t.ways - 1 do
        if t.last_use.(base + w) < t.last_use.(base + !v) then v := w
      done;
      t.tags.(base + !v) <- tag;
      t.last_use.(base + !v) <- t.clock;
      t.fill_time.(base + !v) <- now;
      -1
    end

  let set_fill t addr time =
    let tag, base = set_base t addr in
    for w = 0 to t.ways - 1 do
      if t.tags.(base + w) = tag then t.fill_time.(base + w) <- time
    done

  let contents t =
    Array.init (t.sets * t.ways) (fun i -> (t.tags.(i), t.last_use.(i)))
end

let addr_gen span =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-span) span);
        (1, oneofa [| min_int; max_int; min_int + 1; max_int - 1; -1; 0 |]);
        (1, int);
      ])

let cache_matches_reference (sets, ways, line) =
  QCheck.Test.make ~count:200
    ~name:
      (Printf.sprintf "cache %dx%dx%d agrees with the division reference"
         sets ways line)
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 300) (pair (addr_gen 400) (int_range 0 3))))
    (fun accesses ->
      let c = Cache.create ~sets ~ways ~line
      and r = Ref_cache.create ~sets ~ways ~line in
      let now = ref 0 in
      List.for_all
        (fun (addr, dt) ->
          now := !now + dt;
          let got =
            match Cache.probe c ~now:!now addr with
            | Cache.Hit -> 0
            | Cache.Inflight n -> n
            | Cache.Miss ->
              Cache.set_fill c addr (!now + 5);
              -1
          in
          let want = Ref_cache.probe r ~now:!now addr in
          if want < 0 then Ref_cache.set_fill r addr (!now + 5);
          got = want)
        accesses
      && Cache.contents c = Ref_cache.contents r)

(* [Tlb.access] as it was before the most-recently-used check: a full
   scan whose last match wins. *)
let ref_tlb_access tags stamps clock page =
  let hit = ref (-1) in
  Array.iteri (fun i tag -> if tag = page then hit := i) tags;
  if !hit >= 0 then begin
    stamps.(!hit) <- clock;
    true
  end
  else begin
    let v = ref 0 in
    Array.iteri (fun i s -> if s < stamps.(!v) then v := i) stamps;
    tags.(!v) <- page;
    stamps.(!v) <- clock;
    false
  end

let tlb_matches_reference =
  QCheck.Test.make ~count:300 ~name:"TLB agrees with the scan reference"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 300) (addr_gen 40)))
    (fun addrs ->
      let t = Tlb.create ~entries:4 ~page_size:8 in
      let tags = Array.make 4 (-1) and stamps = Array.make 4 0 in
      let clock = ref 0 in
      List.for_all
        (fun addr ->
          incr clock;
          Tlb.access t addr
          = ref_tlb_access tags stamps !clock (Tlb.page_of t addr))
        addrs
      && Tlb.contents t = Array.map2 (fun a b -> (a, b)) tags stamps)

(* An empty TLB's -1 tags make page -1 hit, on the scan's last entry. *)
let test_tlb_page_minus_one () =
  let t = Tlb.create ~entries:4 ~page_size:8 in
  Alcotest.(check bool) "page -1 hits an empty TLB" true (Tlb.access t (-1));
  Alcotest.(check (array (pair int int)))
    "last entry stamped"
    [| (-1, 0); (-1, 0); (-1, 0); (-1, 1) |]
    (Tlb.contents t);
  Alcotest.(check bool) "page 0 misses" false (Tlb.access t 0);
  Alcotest.(check bool) "page -1 still hits" true (Tlb.access t (-8));
  Alcotest.(check (array (pair int int)))
    "page 0 took the first LRU entry"
    [| (0, 2); (-1, 0); (-1, 0); (-1, 3) |]
    (Tlb.contents t)

(* --- allocation budgets ------------------------------------------------- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* After a warm-up that touches the kernel's pages and grows its tables,
   fast-forward allocates almost nothing per instruction: what remains is
   the oracle's return-address cells, an in-flight cache outcome and the
   odd first-touch page. *)
let test_ff_allocation () =
  List.iter
    (fun (b : Sdiq_workloads.Bench.t) ->
      let p = P.create b.Sdiq_workloads.Bench.prog in
      b.Sdiq_workloads.Bench.init p.P.exec;
      ignore (P.fast_forward p ~insns:200_000 : int);
      let n = ref 0 in
      let w = minor_words (fun () -> n := P.fast_forward p ~insns:1_000_000) in
      let per = w /. float_of_int !n in
      if per >= 0.5 then
        Alcotest.failf "%s: %.2f minor words per fast-forwarded instruction"
          b.Sdiq_workloads.Bench.name per)
    (Sdiq_workloads.Suite.scaled ())

(* A warm overlay restarts without allocating, and its stores are gone. *)
let test_restart_allocation () =
  let b = Asm.create () in
  Asm.halt (Asm.proc b "main");
  let base = Exec.create (Asm.assemble b ~entry:"main") in
  Exec.poke base 4096 1;
  let ov = Exec.overlay base in
  let episode () =
    Exec.restart ov ~pc:0 ~steps:0;
    for i = 0 to 99 do
      Exec.poke ov (4000 + (4 * i)) i;
      Exec.poke ov (1 + (8 * i)) i
    done
  in
  episode ();
  episode ();
  let w = minor_words episode in
  Alcotest.(check (float 0.)) "no allocation" 0. w;
  Exec.restart ov ~pc:0 ~steps:0;
  Alcotest.(check int) "stores forgotten" 0 (Exec.peek ov 4000);
  Alcotest.(check int) "base falls through" 1 (Exec.peek ov 4096)

(* The observed path's sinks allocate nothing per event once warm: a
   recorded 20k-instruction gzip/noop stream replayed into a region
   profiler (after one replay that resolves its counters and grows its
   series) and into a per-kind counter. *)
let test_sink_allocation () =
  let module Tech = Sdiq_harness.Technique in
  let module Region = Sdiq_obs.Region in
  let b = Sdiq_workloads.W_gzip.build ~outer:2_000 () in
  let map =
    Region.build (Tech.delivery Tech.Noop) b.Sdiq_workloads.Bench.prog
  in
  let evs =
    Test_util.record_stream ~policy:(Tech.policy Tech.Noop)
      ~init:b.Sdiq_workloads.Bench.init ~budget:20_000
      (Region.running_prog map)
  in
  let per_event name sink =
    let w = minor_words (fun () -> Array.iter sink evs) in
    let per = w /. float_of_int (Array.length evs) in
    if per >= 0.01 then
      Alcotest.failf "%s: %.3f minor words per event" name per
  in
  let prof = Sdiq_obs.Profiler.create map in
  Array.iter (Sdiq_obs.Profiler.sink prof) evs;
  per_event "profiler" (Sdiq_obs.Profiler.sink prof);
  per_event "counts" (Sdiq_events.Counts.sink (Sdiq_events.Counts.create ()))

let suite =
  [
    QCheck_alcotest.to_alcotest intmap_matches_model;
    QCheck_alcotest.to_alcotest overlay_falls_through;
    QCheck_alcotest.to_alcotest (cache_matches_reference (4, 2, 16));
    QCheck_alcotest.to_alcotest (cache_matches_reference (3, 2, 12));
    QCheck_alcotest.to_alcotest (cache_matches_reference (4, 2, 12));
    QCheck_alcotest.to_alcotest tlb_matches_reference;
    Alcotest.test_case "TLB page -1 on an empty TLB" `Quick
      test_tlb_page_minus_one;
    Alcotest.test_case "fast-forward allocation" `Quick test_ff_allocation;
    Alcotest.test_case "overlay restart allocation" `Quick
      test_restart_allocation;
    Alcotest.test_case "sink allocation" `Quick test_sink_allocation;
  ]
