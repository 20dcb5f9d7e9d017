(* Quiet-cycle skipping (Pipeline.step_cycle): with no sink subscribed,
   a cycle that changed nothing but statistics is repeated in one jump up
   to the next time trigger. Each test runs the same machine twice —
   with no sink, and with a null sink that makes every call step exactly
   one cycle — and demands identical statistics, cycle counts and
   outcomes. Each one aims at a way the skip can go wrong. *)

module Pipeline = Sdiq_cpu.Pipeline
module Stats = Sdiq_cpu.Stats
module Config = Sdiq_cpu.Config
module Technique = Sdiq_harness.Technique

let build ?(config = Config.default) ?sched ~sink bench tech =
  let prog = Technique.prepare tech bench.Sdiq_workloads.Bench.prog in
  let p = Pipeline.create ~config ?sched ~policy:(Technique.policy tech) prog in
  if sink then Pipeline.subscribe ~name:"null" p (fun _ -> ());
  bench.Sdiq_workloads.Bench.init p.Pipeline.exec;
  p

(* Pipeline.run's loop, counting the calls it makes. *)
let run_counting ~budget p =
  let calls = ref 0 in
  while
    (not (Pipeline.drained p)) && p.Pipeline.stats.Stats.committed < budget
  do
    incr calls;
    Pipeline.step_cycle p
  done;
  !calls

(* Same cycle, same statistics, and the same instruction-side probe
   counts: a skipped cycle's fetch probe is replayed, not dropped. *)
let check_same what (a : Pipeline.t) (b : Pipeline.t) =
  Alcotest.(check int) (what ^ ": cycle") b.Pipeline.cycle a.Pipeline.cycle;
  Alcotest.(check bool)
    (what ^ ": statistics equal")
    true
    (Stats.equal a.Pipeline.stats b.Pipeline.stats);
  Alcotest.(check (list int))
    (what ^ ": IL1 hits/misses, ITLB lookups/misses")
    Sdiq_cpu.
      [
        Cache.hits b.Pipeline.il1;
        Cache.misses b.Pipeline.il1;
        Tlb.lookups b.Pipeline.itlb;
        Tlb.misses b.Pipeline.itlb;
      ]
    Sdiq_cpu.
      [
        Cache.hits a.Pipeline.il1;
        Cache.misses a.Pipeline.il1;
        Tlb.lookups a.Pipeline.itlb;
        Tlb.misses a.Pipeline.itlb;
      ]

(* mcf is memory-bound: long runs of cycles waiting on a miss, with the
   ROB, IQ and fetch queue full — the fetch stage probes the ITLB and
   IL1 on every one of them, and the skip must replay those probes
   (they advance the LRU clocks later misses depend on). The skip must
   actually happen: fewer calls than cycles. *)
let test_skips_memory_stalls () =
  let bench = Sdiq_workloads.W_mcf.build ~outer:2_000 () in
  List.iter
    (fun tech ->
      let skip = build ~sink:false bench tech in
      let step = build ~sink:true bench tech in
      let calls = run_counting ~budget:5_000 skip in
      let (_ : int) = run_counting ~budget:5_000 step in
      check_same (Technique.name tech) skip step;
      Alcotest.(check bool)
        (Technique.name tech ^ ": quiet cycles were skipped")
        true
        (calls < skip.Pipeline.cycle / 2))
    Technique.all

(* A trigger can fall on the very cycle after the quiet one — a
   completion, the fetch-queue head finishing decode, an unpipelined
   divider freeing — and is compared against the cycle just executed,
   not the already advanced [cycle]. Small random programs under every
   scheduler hit all of these at cycle granularity. *)
let test_random_programs_identical () =
  for seed = 1 to 12 do
    let prog =
      Sdiq_workloads.Gen.program_of_desc
        (Sdiq_workloads.Gen.random_desc (Sdiq_util.Rng.create seed))
    in
    let bench =
      { Sdiq_workloads.Bench.name = "random"; description = ""; prog; init = ignore }
    in
    List.iter
      (fun sched ->
        List.iter
          (fun tech ->
            let skip = build ~sched ~sink:false bench tech in
            let step = build ~sched ~sink:true bench tech in
            ignore (Pipeline.run ~max_cycles:2_000_000 skip : Stats.t);
            ignore (Pipeline.run ~max_cycles:2_000_000 step : Stats.t);
            check_same
              (Printf.sprintf "seed %d %s %s" seed (Technique.name tech)
                 (Sdiq_cpu.Sched.name sched))
              skip step)
          Technique.all)
      Sdiq_cpu.Sched.[ oldest_first; nskip ~n:4; load_delay ]
  done

(* Wrong-path-heavy kernels under the NOOP technique: a squash flushes
   the fetch queue, and a wrong-path Iqset leaves it at dispatch without
   moving any counter — only the occupancy check sees that cycle as
   busy. *)
let test_wrong_path_iqsets () =
  List.iter
    (fun bench ->
      let skip = build ~sink:false bench Technique.Noop in
      let step = build ~sink:true bench Technique.Noop in
      ignore (Pipeline.run ~max_insns:4_000 skip : Stats.t);
      ignore (Pipeline.run ~max_insns:4_000 step : Stats.t);
      Alcotest.(check bool)
        (bench.Sdiq_workloads.Bench.name ^ ": wrong-path fetch happened")
        true
        (skip.Pipeline.stats.Stats.wp_fetched > 0);
      check_same bench.Sdiq_workloads.Bench.name skip step)
    [
      Sdiq_workloads.W_vpr.build ~outer:2_000 ();
      Sdiq_workloads.W_twolf.build ~outer:2_000 ();
    ]

(* The cycle guards: [run ~max_cycles], [drain ~max_cycles] and the
   progress deadline of [Sampling.sample]'s detailed phases must raise
   [Simulation_limit] in exactly the cases, and at exactly the cycle,
   they do when every cycle is stepped — a skip must stop at the guard,
   not jump past it to the next trigger. A two-million-cycle TLB walk
   makes every guard fall inside one quiet stretch. *)
let test_cycle_guards () =
  let config = { Config.default with Config.tlb_miss_penalty = 2_000_000 } in
  let bench = Sdiq_workloads.W_gzip.build ~outer:2_000 () in
  let script p =
    let attempt f =
      match f () with
      | () -> `Done p.Pipeline.cycle
      | exception Pipeline.Simulation_limit _ -> `Limit p.Pipeline.cycle
    in
    (* In order: the ITLB walk of the first fetch outlasts the run
       guard, then the sampled warmup's deadline; the run to the first
       commit gets past it; the drain's guard falls before the work in
       flight retires. *)
    let guarded_run =
      attempt (fun () -> ignore (Pipeline.run ~max_cycles:50_000 p : Stats.t))
    in
    let sampled =
      attempt (fun () ->
          ignore
            (Sdiq_harness.Sampling.sample
               ~config:
                 {
                   Sdiq_harness.Sampling.ff_len = 2_000;
                   warmup_len = 300;
                   window_len = 300;
                 }
               p
              : Sdiq_harness.Sampling.result))
    in
    let first_commit =
      attempt (fun () ->
          ignore (Pipeline.run ~max_insns:1 ~max_cycles:6_000_000 p : Stats.t))
    in
    let drain = attempt (fun () -> Pipeline.drain ~max_cycles:8 p) in
    [ guarded_run; sampled; first_commit; drain ]
  in
  let skip = build ~config ~sink:false bench Technique.Baseline in
  let step = build ~config ~sink:true bench Technique.Baseline in
  let outcomes = script skip in
  let expected = script step in
  let show = function
    | `Done c -> Printf.sprintf "done@%d" c
    | `Limit c -> Printf.sprintf "limit@%d" c
  in
  Alcotest.(check (list string))
    "same outcomes at the same cycles"
    (List.map show expected) (List.map show outcomes);
  check_same "after the script" skip step;
  Alcotest.(check (list bool))
    "run, sampling and drain each hit their guard" [ true; true; false; true ]
    (List.map (function `Limit _ -> true | `Done _ -> false) outcomes)

let suite =
  [
    Alcotest.test_case "memory stalls skipped, exactly" `Quick
      test_skips_memory_stalls;
    Alcotest.test_case "random programs identical with skipping" `Quick
      test_random_programs_identical;
    Alcotest.test_case "wrong-path Iqset pops are not quiet" `Quick
      test_wrong_path_iqsets;
    Alcotest.test_case "cycle guards raise at the same cycle" `Quick
      test_cycle_guards;
  ]
