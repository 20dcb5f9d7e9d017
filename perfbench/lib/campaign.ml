(* The benchmark's three workloads: their set-up, a closed loop of
   (kernel x technique) pairs run one after another by a single client,
   and the output checks. Every layer is timed from outside, by
   bracketing calls into the library's public functions with a clock;
   no library code is instrumented. *)

open Sdiq_workloads
module H = Sdiq_harness
module P = Sdiq_cpu.Pipeline
module Stats = Sdiq_cpu.Stats
module Span = Sdiq_util.Spanlog
module Counts = Sdiq_events.Counts
module Profiler = Sdiq_obs.Profiler

type workload = Detailed | Sampled | Observed

let workloads =
  [ ("detailed", Detailed); ("sampled", Sampled); ("observed", Observed) ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type scale = {
  kernels : unit -> Bench.t list;  (** detailed and observed *)
  sampled_kernels : unit -> Bench.t list;
  budget : int;  (** committed instructions per detailed pair *)
  sample_config : H.Sampling.config;
  sample_insns : int;  (** oracle instructions covered per sampled pair *)
  max_offset : int;  (** bound of the seed-drawn detailed start offsets *)
  setup_reps : int;  (** timed repeats of [setup] *)
}

(* The paper's campaign as bench/main.exe runs it (100k committed
   instructions per pair, caches empty at seed 0). Sampled pairs cover
   the first two million oracle instructions of each Suite.scaled kernel:
   40 windows at the default geometry, above the 30 the estimator needs
   for its tight confidence floor. Offsets stay within a tenth of the
   budget so that another seed re-checks a claim on a shifted slice
   without moving the suite averages by more than noise. *)
let full =
  {
    kernels = Suite.all;
    sampled_kernels = Suite.scaled;
    budget = 100_000;
    sample_config = H.Sampling.default;
    sample_insns = 2_000_000;
    max_offset = 10_000;
    setup_reps = 9;
  }

(* Test scale: three Suite.tiny kernels (memory-bound mcf, wrong-path
   heavy vpr) with short pairs. Sampled pairs use the two tiny kernels
   long enough for 30 windows, at a geometry whose periods are short
   next to the instructions a detailed phase leaves in flight. *)
let tiny =
  let pick names () =
    List.filter
      (fun (b : Bench.t) -> List.mem b.Bench.name names)
      (Suite.tiny ())
  in
  {
    kernels = pick [ "gzip"; "vpr"; "mcf" ];
    sampled_kernels = pick [ "gap"; "bzip2" ];
    budget = 2_000;
    sample_config =
      { H.Sampling.ff_len = 40; warmup_len = 20; window_len = 20 };
    sample_insns = 8_000;
    max_offset = 200;
    setup_reps = 2;
  }

let techniques = function
  | Detailed -> H.Technique.all
  | Sampled | Observed -> [ H.Technique.Baseline; H.Technique.Noop ]

(* Two clocks. Calls as short as one cycle are timed on the monotonic
   span clock, which costs tens of nanoseconds a read. Pairs and set-up
   are timed in process CPU time: on a shared host it leaves out the
   time the process waits for a CPU, the largest source of noise. *)
let now () = Int64.to_int (Span.now_ns ())
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

(* A fixed piece of work of the benchmark's own, run between pairs to
   measure how fast the host is running at the time: a toy
   load/store machine over a 64k-word memory, with a hash table that
   allocates, much like the simulator's own mix of array accesses,
   branches and short-lived allocation. Its time, not its result,
   matters. *)
let calibration_kernel n =
  let mem = Array.make 65536 0 and tbl = Hashtbl.create 4096 in
  let acc = ref 0 and x = ref 12345 in
  for i = 0 to n - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let a = !x land 65535 in
    match (!x lsr 20) land 7 with
    | 0 | 1 -> mem.(a) <- mem.(a) + i
    | 2 | 3 | 4 -> acc := !acc + mem.(a)
    | 5 -> Hashtbl.replace tbl (a land 4095) (i, !acc)
    | _ -> (
      match Hashtbl.find_opt tbl (a land 4095) with
      | Some (j, _) -> acc := !acc + j
      | None -> ())
  done;
  !acc

let calibration_insns = 300_000

(* The calibration run's time on the reference host, the 2-vCPU VM
   (Xeon at 2.0 GHz) the benchmark's bounds were set on, where the
   median over a 30-second run ranged from about 12 to 14 ms. *)
let reference_calibration_ns = 12_000_000

(* Host ns of one calibration run. *)
let calibrate () =
  let t = cpu_ns () in
  ignore (Sys.opaque_identity (calibration_kernel calibration_insns) : int);
  cpu_ns () - t

(* Host time of the traced run, accumulated by the timed wrappers. *)
type timers = {
  mutable cp_ns : int;  (** step_cycle, correct-path cycles *)
  mutable cp_cycles : int;
  mutable wp_ns : int;  (** step_cycle, cycles begun in a wrong-path episode *)
  mutable wp_cycles : int;
  mutable ff_ns : int;
  mutable ff_insns : int;
  mutable counts_ns : int;  (** inside the Counts sink *)
  mutable prof_ns : int;  (** inside the Profiler sink *)
  mutable events : int;
  mutable insns : int;  (** simulated instructions of the timed runs *)
}

let timers () =
  {
    cp_ns = 0;
    cp_cycles = 0;
    wp_ns = 0;
    wp_cycles = 0;
    ff_ns = 0;
    ff_insns = 0;
    counts_ns = 0;
    prof_ns = 0;
    events = 0;
    insns = 0;
  }

(* One (kernel, technique) pair, ready to instantiate. *)
type pair = {
  bench : Bench.t;
  tech : H.Technique.t;
  prog : Sdiq_isa.Prog.t;  (** the binary Technique.prepare built *)
  map : Sdiq_obs.Region.t option;  (** observed: the profiler's region map *)
  offset : int;  (** oracle instructions to fast-forward before the run *)
}

(* Host time of one set-up. *)
type setup_time = {
  total_ns : int;
  build_ns : int;
  prepare_ns : (H.Technique.t * int) list;  (** summed over kernels *)
}

(* The set-up shared by every run of a pair; each run then instantiates
   its own pipeline (see [instantiate]). *)
type setup = { pairs : pair array; time : setup_time }

(* Seeds fall into [variants + 1] variants, each with its own reference
   digests (see [reference]): variant 0, seed 0 alone, runs every pair
   from program start; every other seed maps to one of [variants] draws
   of start offsets. *)
let variants = 16
let variant seed = if seed = 0 then 0 else 1 + ((seed - 1) mod variants)

(* A variant's draw gives, for detailed and observed pairs, one start
   offset per kernel in [1, max_offset], shared by its techniques so that
   baseline and technique cover the same stretch. A sampled pair always
   starts at program start: its systematic sample is a pure function of
   program and geometry, and shifting its phase would move the sampled
   NOOP IPC loss by more than its bound. *)
let run_variant w seed = if w = Sampled then 0 else variant seed

let offsets ~scale ~seed w kernels =
  let v = run_variant w seed in
  let rng = Sdiq_util.Rng.create v in
  List.map
    (fun (b : Bench.t) ->
      ( b.Bench.name,
        if v = 0 then 0 else Sdiq_util.Rng.int_in rng 1 scale.max_offset ))
    kernels

(* A pipeline ready for its first cycle. *)
type inst = {
  pair : pair;
  p : P.t;
  base : Stats.t;
      (** statistics at the first cycle: fast-forward advances the cycle
          counter, which the next Cycle_end folds into [cycles] *)
  sinks : (Counts.t * Profiler.t) option;
  create_ns : int;  (** Pipeline.create *)
  inst_ns : int;  (** create, sinks, init and fast-forward together *)
}

(* The observed sinks: a per-kind event counter and the region
   profiler. Traced runs subscribe them through timing wrappers. *)
let attach_sinks ?timers map p =
  let counts = Counts.create () in
  let prof = Profiler.create ~cfg:(P.Debug.cfg p) map in
  (match timers with
  | None ->
    P.subscribe ~name:"counts" p (Counts.sink counts);
    P.subscribe ~name:"region-profiler" p (Profiler.sink prof)
  | Some tm ->
    P.subscribe ~name:"counts" p (fun e ->
        let t = now () in
        Counts.sink counts e;
        tm.counts_ns <- tm.counts_ns + now () - t);
    P.subscribe ~name:"region-profiler" p (fun e ->
        let t = now () in
        Profiler.sink prof e;
        tm.prof_ns <- tm.prof_ns + now () - t));
  (counts, prof)

(* Create the pair's pipeline, subscribe its sinks (unless [sinks] is
   false), initialise its memory and fast-forward it to its offset. *)
let instantiate ?timers ?(sinks = true) pair =
  Span.with_span "instantiate" @@ fun () ->
  let t0 = cpu_ns () in
  let p = P.create ~policy:(H.Technique.policy pair.tech) pair.prog in
  let create_ns = cpu_ns () - t0 in
  let sinks =
    match pair.map with
    | Some map when sinks -> Some (attach_sinks ?timers map p)
    | Some _ | None -> None
  in
  pair.bench.Bench.init p.P.exec;
  if pair.offset > 0 then begin
    let t = now () in
    let n = P.fast_forward p ~insns:pair.offset in
    Option.iter
      (fun tm ->
        tm.ff_ns <- tm.ff_ns + now () - t;
        tm.ff_insns <- tm.ff_insns + n)
      timers
  end;
  let base = Stats.copy p.P.stats in
  base.Stats.cycles <- p.P.cycle;
  { pair; p; base; sinks; create_ns; inst_ns = cpu_ns () - t0 }

(* Build the kernels and run the compiler pass for every pair (and,
   observed, build the region maps). The rest of the set-up, one
   pipeline per pair, is made just before each run, so that one machine
   is alive at a time and the host memory figure is a single
   simulation's; the repeats of the set-up keep only their times. *)
let setup ~scale ~seed w =
  (* Start from a collected heap, as every run does. *)
  Gc.full_major ();
  Span.with_span "setup" @@ fun () ->
  let t0 = cpu_ns () in
  let kernels =
    Span.with_span "setup.build" (fun () ->
        match w with
        | Sampled -> scale.sampled_kernels ()
        | Detailed | Observed -> scale.kernels ())
  in
  let build_ns = cpu_ns () - t0 in
  let techs = techniques w in
  let prepare_ns = Array.make (List.length techs) 0 in
  let offsets = offsets ~scale ~seed w kernels in
  let pairs =
    Span.with_span "setup.prepare" (fun () ->
        List.concat_map
          (fun (b : Bench.t) ->
            List.mapi
              (fun i tech ->
                let t = cpu_ns () in
                let prog = H.Technique.prepare tech b.Bench.prog in
                prepare_ns.(i) <- prepare_ns.(i) + cpu_ns () - t;
                let map =
                  if w = Observed then
                    Some
                      (Sdiq_obs.Region.build (H.Technique.delivery tech)
                         b.Bench.prog)
                  else None
                in
                let offset = List.assoc b.Bench.name offsets in
                { bench = b; tech; prog; map; offset })
              techs)
          kernels)
    |> Array.of_list
  in
  {
    pairs;
    time =
      {
        total_ns = cpu_ns () - t0;
        build_ns;
        prepare_ns = List.combine techs (Array.to_list prepare_ns);
      };
  }

(* One pair's simulated result. *)
type outcome = {
  stats : Stats.t;  (** the run's statistics; sampled: the window sum *)
  insns : int;  (** committed, or oracle instructions covered if sampled *)
  ipc : H.Sampling.estimate;
  windows : int;
  events : int;  (** events the Counts sink saw; 0 without sinks *)
  digest : string;
  problem : string option;  (** the failed output check, if any *)
  ns : int;  (** host time of the simulation call *)
}

let digest extra (s : Stats.t) =
  Stats.to_fields s
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat ","
  |> ( ^ ) extra |> Digest.string |> Digest.to_hex

(* The deadlock guard of Pipeline.run, kept by the traced loop. *)
let max_cycles = 200_000_000

(* The traced loop: Pipeline.run's loop with each step_cycle timed and
   split by whether the cycle begins inside a wrong-path episode. *)
let traced_run tm p target =
  while (not (P.drained p)) && p.P.stats.Stats.committed < target do
    if p.P.cycle >= max_cycles then
      raise
        (P.Simulation_limit
           (Printf.sprintf "no progress: %d cycles, %d committed" p.P.cycle
              p.P.stats.Stats.committed));
    let wp = P.Debug.wp_mode p in
    let t = now () in
    P.step_cycle p;
    let dt = now () - t in
    if wp then begin
      tm.wp_ns <- tm.wp_ns + dt;
      tm.wp_cycles <- tm.wp_cycles + 1
    end
    else begin
      tm.cp_ns <- tm.cp_ns + dt;
      tm.cp_cycles <- tm.cp_cycles + 1
    end
  done

(* A detailed pair runs to its budget in window-sized slices, so that
   its IPC gets the same batch-means confidence interval a sampled run
   gets. Pipeline.run stops as soon as its target has committed, so the
   slices step exactly the cycles one call to the full budget would. *)
let run_detailed ?timers ~scale inst =
  let p = inst.p in
  let window = scale.sample_config.H.Sampling.window_len in
  let xs = ref [] and ys = ref [] and target = ref 0 in
  let t0 = cpu_ns () in
  while (not (P.drained p)) && p.P.stats.Stats.committed < scale.budget do
    let c0 = p.P.stats.Stats.committed and y0 = p.P.cycle in
    target := min scale.budget (!target + window);
    (match timers with
    | None -> ignore (P.run ~max_insns:!target p : Stats.t)
    | Some tm -> traced_run tm p !target);
    xs := float_of_int (p.P.stats.Stats.committed - c0) :: !xs;
    ys := float_of_int (p.P.cycle - y0) :: !ys
  done;
  let ns = cpu_ns () - t0 in
  let stats = Stats.diff p.P.stats inst.base in
  let events =
    match inst.sinks with Some (c, _) -> Counts.total c | None -> 0
  in
  let problem =
    if stats.Stats.committed < scale.budget then
      Some
        (Printf.sprintf "committed %d of its %d-instruction budget"
           stats.Stats.committed scale.budget)
    else
      match inst.sinks with
      | Some (_, prof) when not (Stats.equal (Profiler.total_stats prof) stats)
        ->
        Some "profiler region totals differ from the pipeline's statistics"
      | _ -> None
  in
  {
    stats;
    insns = stats.Stats.committed;
    ipc =
      H.Sampling.estimate
        (Array.of_list (List.rev !xs))
        (Array.of_list (List.rev !ys));
    windows = List.length !xs;
    events;
    digest = digest "" stats;
    problem;
    ns;
  }

let min_windows = 30

let run_sampled ?timers ~scale inst =
  let t0 = cpu_ns () in
  let r =
    H.Sampling.sample ~config:scale.sample_config
      ~max_insns:scale.sample_insns inst.p
  in
  let ns = cpu_ns () - t0 in
  let w = r.H.Sampling.window_stats in
  (* Every oracle instruction not committed in a detailed phase was
     fast-forwarded (bar the few in flight when the budget ends). *)
  Option.iter
    (fun tm ->
      tm.ff_insns <-
        tm.ff_insns + r.H.Sampling.total_insns
        - inst.p.P.stats.Stats.committed;
      tm.cp_cycles <- tm.cp_cycles + w.Stats.cycles)
    timers;
  {
    stats = w;
    insns = r.H.Sampling.total_insns;
    ipc = r.H.Sampling.ipc;
    windows = r.H.Sampling.windows;
    events = 0;
    digest =
      digest
        (Printf.sprintf "insns=%d,windows=%d,ipc=%h,%h,"
           r.H.Sampling.total_insns r.H.Sampling.windows
           r.H.Sampling.ipc.H.Sampling.mean
           r.H.Sampling.ipc.H.Sampling.ci_half)
        w;
    problem =
      (if r.H.Sampling.windows < min_windows then
         Some
           (Printf.sprintf "measured %d windows, fewer than %d"
              r.H.Sampling.windows min_windows)
       else None);
    ns;
  }

let run_pair ?timers ~scale w inst =
  let o =
    match w with
    | Sampled -> run_sampled ?timers ~scale inst
    | Detailed | Observed -> run_detailed ?timers ~scale inst
  in
  Option.iter
    (fun (tm : timers) ->
      tm.events <- tm.events + o.events;
      tm.insns <- tm.insns + o.insns)
    timers;
  o

(* Reference digests, one per (workload, variant, pair label): the
   statistics every pair must reproduce, so that a change to the
   simulated output fails the run. They are kept in perfbench/expected.txt,
   one "workload variant pair digest" line each, and rewritten by
   perfbench/expect.exe. *)
type reference = (string * int * string, string) Hashtbl.t

let load_reference file : reference =
  let r = Hashtbl.create 1024 in
  In_channel.with_open_text file (fun ic ->
      In_channel.input_lines ic
      |> List.iter (fun l ->
             if l <> "" && l.[0] <> '#' then
               Scanf.sscanf l "%s %d %s %s" (fun w v pair d ->
                   Hashtbl.replace r (w, v, pair) d)));
  r

(* The closed loop of one phase: the pairs in a fixed order, each run
   on a fresh instance, rounds repeated until [seconds] have passed and
   at least one round is complete. Every repeat of a pair must
   reproduce the digest of its first run, and the first run the
   pair's [expected] digest when there is a reference. [setup_reps]
   more set-ups are timed during the first round, one every few pairs,
   so that their median samples the host's speed over seconds rather
   than in one burst. *)
type phase = {
  labels : (string * H.Technique.t) array;
  first : outcome option array;  (** first successful run of each pair *)
  times : (int * int) list array;
      (** host ns of every run of each pair, and the mean host ns of the
          calibration runs just before and just after it *)
  calibration : int list;  (** host ns of every calibration run *)
  inst_times : (int * int) list array;
      (** host ns of every instantiation of each pair: create, all *)
  attempted : int;
  failures : string list;
}

let label (b, t) = b ^ "/" ^ H.Technique.name t

let run_phase ?timers ?sinks ?expected ?(setup_reps = (0, ignore)) ~scale
    ~seconds w (pairs : pair array) =
  let n = Array.length pairs in
  let reps, setup_rep = setup_reps in
  let reps_left = ref reps and stride = max 1 (n / max 1 reps) in
  let labels = Array.map (fun q -> (q.bench.Bench.name, q.tech)) pairs in
  let first = Array.make n None and times = Array.make n [] in
  let inst_times = Array.make n [] in
  let attempted = ref 0 and failures = ref [] in
  let calibration = ref [ calibrate () ] in
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let k = ref 0 and round_done = ref false in
  while not (!round_done && now () >= deadline) do
    let i = !k in
    let fail msg = failures := (label labels.(i) ^ ": " ^ msg) :: !failures in
    if (not !round_done) && !reps_left > 0 && i mod stride = 0 then begin
      decr reps_left;
      setup_rep ()
    end;
    (* Collect the previous run's garbage first, so that no run pays
       for another's. *)
    Gc.full_major ();
    let inst = instantiate ?timers ?sinks pairs.(i) in
    inst_times.(i) <- (inst.create_ns, inst.inst_ns) :: inst_times.(i);
    incr attempted;
    (match
       Span.with_span "pair"
         ~attrs:[ ("pair", label labels.(i)) ]
         (fun () -> run_pair ?timers ~scale w inst)
     with
    | o -> (
      let before = List.hd !calibration and after = calibrate () in
      calibration := after :: !calibration;
      times.(i) <- (o.ns, (before + after) / 2) :: times.(i);
      match (o.problem, first.(i)) with
      | Some msg, _ -> fail msg
      | None, Some f when f.digest <> o.digest ->
        fail "statistics differ from the pair's first run"
      | None, Some _ -> ()
      | None, None -> (
        first.(i) <- Some o;
        match Option.map (fun e -> e labels.(i)) expected with
        | Some (Some d) when d <> o.digest ->
          fail "statistics differ from the reference digest"
        | Some None -> fail "no reference digest"
        | Some (Some _) | None -> ()))
    | exception P.Simulation_limit msg -> fail ("Simulation_limit: " ^ msg));
    k := (i + 1) mod n;
    if !k = 0 then round_done := true
  done;
  for _ = 1 to !reps_left do
    setup_rep ()
  done;
  {
    labels;
    first;
    times;
    calibration = !calibration;
    inst_times;
    attempted = !attempted;
    failures = List.rev !failures;
  }

let span_ns name (spans : Span.result) =
  List.fold_left
    (fun acc (s : Span.span) ->
      if s.Span.name = name then
        acc + Int64.to_int (Int64.sub s.Span.stop_ns s.Span.start_ns)
      else acc)
    0 spans.Span.spans

(* A whole benchmark run of one workload. *)
type run = {
  workload : workload;
  seed : int;
  setups : setup_time list;
  untraced : phase;
  traced : (phase * timers * Span.result) option;
  nosink : (phase * timers) option;
      (** observed pairs without sinks, timed like the traced phase *)
  mismatches : string list;  (** traced or sink-free digests that differ *)
}

let compare_digests what (a : phase) (b : phase) =
  List.concat
    (List.init (Array.length a.first) (fun k ->
         match (a.first.(k), b.first.(k)) with
         | Some x, Some y when x.digest <> y.digest ->
           [ Printf.sprintf "%s: %s digest differs" (label a.labels.(k)) what ]
         | _ -> []))

let run ?(scale = full) ?reference ~seed ~seconds ~trace w =
  let s = setup ~scale ~seed w in
  let times = ref [ s.time ] in
  let setup_reps =
    ( scale.setup_reps - 1,
      fun () -> times := (setup ~scale ~seed w).time :: !times )
  in
  let expected =
    Option.map
      (fun (r : reference) l ->
        Hashtbl.find_opt r (workload_name w, run_variant w seed, label l))
      reference
  in
  let pairs = s.pairs in
  if not trace then begin
    let untraced = run_phase ?expected ~setup_reps ~scale ~seconds w pairs in
    {
      workload = w;
      seed;
      setups = !times;
      untraced;
      traced = None;
      nosink = None;
      mismatches = [];
    }
  end
  else begin
    (* Half the time untraced, half traced: the two mips figures give the
       tracing overhead, and the traced digests must equal the untraced. *)
    let untraced =
      run_phase ?expected ~setup_reps ~scale ~seconds:(seconds /. 2.) w pairs
    in
    Span.start ();
    let traced_setup = setup ~scale ~seed w in
    let tm = timers () in
    let traced =
      run_phase ~timers:tm ~scale ~seconds:(seconds /. 2.) w traced_setup.pairs
    in
    let nosink =
      match w with
      | Observed ->
        let tm' = timers () in
        Some
          (run_phase ~timers:tm' ~sinks:false ~scale ~seconds:0. w pairs, tm')
      | Detailed | Sampled -> None
    in
    let spans = Option.get (Span.drain ()) in
    (* Sampling.sample drives step_cycle and fast_forward itself; its
       phase spans time them: the measured windows (whose cycles
       run_sampled counted) and the drain-plus-fast-forward phases. *)
    if w = Sampled then begin
      tm.cp_ns <- span_ns "sample.window" spans;
      tm.ff_ns <- tm.ff_ns + span_ns "sample.ff" spans
    end;
    {
      workload = w;
      seed;
      setups = traced_setup.time :: !times;
      untraced;
      traced = Some (traced, tm, spans);
      nosink;
      mismatches =
        compare_digests "traced" untraced traced
        @
        match nosink with
        | Some (ph, _) -> compare_digests "sink-free" untraced ph
        | None -> [];
    }
  end
