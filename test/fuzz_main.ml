(* Standalone differential fuzzer: generate N random programs and run
   each through Sdiq_check.Differential (oracle vs pipeline, every
   technique, invariant checker installed). Used by `make fuzz`.

   Reproducibility: the base seed comes from FUZZ_SEED (default 1), the
   program count from FUZZ_N (default 500). Program i uses the derived
   seed [base_seed + i], so any failure is replayable in isolation:

     FUZZ_SEED=<reported seed> FUZZ_N=1 dune exec test/fuzz_main.exe

   replays just the failing program (the failure report prints the exact
   incantation). *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let () =
  let base_seed = env_int "FUZZ_SEED" 1 in
  let n = env_int "FUZZ_N" 500 in
  Printf.printf "fuzz: %d programs, base seed %d (override with FUZZ_SEED/FUZZ_N)\n%!"
    n base_seed;
  let failures = ref 0 in
  for i = 0 to n - 1 do
    let seed = base_seed + i in
    let rng = Sdiq_util.Rng.create seed in
    let desc = Sdiq_workloads.Gen.random_desc rng in
    let prog = Sdiq_workloads.Gen.program_of_desc desc in
    let reports = Sdiq_check.Differential.run prog in
    if not (Sdiq_check.Differential.ok reports) then begin
      incr failures;
      Printf.printf "\nFAILURE at program %d (seed %d)\n" i seed;
      Printf.printf "replay: FUZZ_SEED=%d FUZZ_N=1 dune exec test/fuzz_main.exe\n"
        seed;
      Fmt.pr "program description:@.%a@." Sdiq_workloads.Gen.pp_desc desc;
      List.iter
        (fun r -> Fmt.pr "%a@." Sdiq_check.Differential.pp_report r)
        reports
    end
    else if (i + 1) mod 50 = 0 then
      Printf.printf "  %d/%d ok\n%!" (i + 1) n
  done;
  if !failures > 0 then begin
    Printf.printf "\nfuzz: %d/%d programs FAILED\n" !failures n;
    exit 1
  end;
  Printf.printf "fuzz: all %d programs agree across techniques (checker on)\n%!"
    n;
  (* Sampled lane: the same derived seeds through SMARTS sampling with
     the invariant checker attached — the checker audits every detailed
     cycle, warmup and measured window alike, so any state the
     functional fast-forward could corrupt trips an invariant inside
     the next window. A tiny geometry keeps several fast-forward /
     detailed transitions even on short random programs. *)
  let config =
    {
      Sdiq_harness.Sampling.ff_len = 2_000;
      warmup_len = 300;
      window_len = 300;
    }
  in
  let sampled_failures = ref 0 in
  for i = 0 to n - 1 do
    let seed = base_seed + i in
    let rng = Sdiq_util.Rng.create seed in
    let desc = Sdiq_workloads.Gen.random_desc rng in
    let prog = Sdiq_workloads.Gen.program_of_desc desc in
    List.iter
      (fun tech ->
        let prepared = Sdiq_harness.Technique.prepare tech prog in
        let p =
          Sdiq_cpu.Pipeline.create
            ~policy:(Sdiq_harness.Technique.policy tech)
            prepared
        in
        ignore (Sdiq_check.Checker.attach p : Sdiq_check.Checker.t);
        let fail fmt =
          incr sampled_failures;
          Printf.printf "\nSAMPLED FAILURE at program %d (seed %d, %s)\n" i
            seed
            (Sdiq_harness.Technique.name tech);
          Printf.printf
            "replay: FUZZ_SEED=%d FUZZ_N=1 dune exec test/fuzz_main.exe\n"
            seed;
          Fmt.pr fmt
        in
        match Sdiq_harness.Sampling.sample ~config p with
        | (_ : Sdiq_harness.Sampling.result) -> ()
        | exception Sdiq_check.Checker.Invariant_violation v ->
          fail "%a@." Sdiq_check.Checker.pp_violation v
        | exception Sdiq_cpu.Pipeline.Simulation_limit msg ->
          fail "stuck: %s@." msg)
      Sdiq_harness.Technique.all
  done;
  if !sampled_failures > 0 then begin
    Printf.printf "\nfuzz: %d sampled runs FAILED\n" !sampled_failures;
    exit 1
  end;
  Printf.printf
    "fuzz: all %d programs clean under sampling (checker on in every \
     detailed window)\n%!"
    n;
  (* Wrong-path lane: speculation must be invisible to architecture.
     The same derived seeds run twice — speculative fetch on (the
     default; wrong-path instructions enter rename, the IQ, the LSQ and
     the register files, then squash at resolution) and off (fetch
     stalls at a mispredict until it resolves) — and the committed
     instruction stream and the final architectural state must be
     identical word for word. Any wrong-path value that leaks into the
     oracle's registers or memory, or any over/under-squash that drops
     or duplicates a committed instruction, fails here. *)
  let spec_off = { Sdiq_cpu.Config.default with speculative_fetch = false } in
  let committed_trace config prog tech =
    let prepared = Sdiq_harness.Technique.prepare tech prog in
    let p =
      Sdiq_cpu.Pipeline.create ~config
        ~policy:(Sdiq_harness.Technique.policy tech)
        prepared
    in
    ignore (Sdiq_check.Checker.attach p : Sdiq_check.Checker.t);
    let commits = ref [] in
    Sdiq_cpu.Pipeline.on_commit_sink p (fun d -> commits := d :: !commits);
    ignore (Sdiq_cpu.Pipeline.run ~max_cycles:2_000_000 p : Sdiq_cpu.Stats.t);
    (Array.of_list (List.rev !commits), p.Sdiq_cpu.Pipeline.exec)
  in
  let sorted_bindings iter tbl =
    let acc = ref [] in
    iter (fun k v -> acc := (k, v) :: !acc) tbl;
    List.sort compare !acc
  in
  (* [compare], not [<>]: random fp programs do produce NaN (inf - inf
     and friends), and structural float inequality would flag a pair of
     identical NaNs as a divergence. [compare nan nan = 0]. *)
  let differ x y = compare x y <> 0 in
  let state_mismatch (a : Sdiq_isa.Exec.state) (b : Sdiq_isa.Exec.state) =
    if differ a.Sdiq_isa.Exec.iregs b.Sdiq_isa.Exec.iregs then
      Some "int registers"
    else if differ a.Sdiq_isa.Exec.fregs b.Sdiq_isa.Exec.fregs then
      Some "fp registers"
    else if
      differ
        (sorted_bindings
           (fun f t -> Sdiq_isa.Intmap.iter f t)
           a.Sdiq_isa.Exec.imem)
        (sorted_bindings
           (fun f t -> Sdiq_isa.Intmap.iter f t)
           b.Sdiq_isa.Exec.imem)
    then Some "int memory"
    else if
      differ
        (sorted_bindings (fun f t -> Hashtbl.iter f t) a.Sdiq_isa.Exec.fmem)
        (sorted_bindings (fun f t -> Hashtbl.iter f t) b.Sdiq_isa.Exec.fmem)
    then Some "fp memory"
    else if a.Sdiq_isa.Exec.pc <> b.Sdiq_isa.Exec.pc then Some "final pc"
    else if a.Sdiq_isa.Exec.steps <> b.Sdiq_isa.Exec.steps then
      Some "instruction count"
    else if a.Sdiq_isa.Exec.halted <> b.Sdiq_isa.Exec.halted then
      Some "halt flag"
    else None
  in
  let wp_failures = ref 0 in
  for i = 0 to n - 1 do
    let seed = base_seed + i in
    let rng = Sdiq_util.Rng.create seed in
    let desc = Sdiq_workloads.Gen.random_desc rng in
    let prog = Sdiq_workloads.Gen.program_of_desc desc in
    List.iter
      (fun tech ->
        let fail what =
          incr wp_failures;
          Printf.printf
            "\nWRONG-PATH FAILURE at program %d (seed %d, %s): %s differs \
             between speculative and non-speculative fetch\n"
            i seed
            (Sdiq_harness.Technique.name tech)
            what;
          Printf.printf
            "replay: FUZZ_SEED=%d FUZZ_N=1 dune exec test/fuzz_main.exe\n"
            seed
        in
        match
          ( committed_trace Sdiq_cpu.Config.default prog tech,
            committed_trace spec_off prog tech )
        with
        | (trace_on, exec_on), (trace_off, exec_off) -> (
          if differ trace_on trace_off then fail "committed trace"
          else
            match state_mismatch exec_on exec_off with
            | Some what -> fail what
            | None -> ())
        | exception Sdiq_check.Checker.Invariant_violation v ->
          incr wp_failures;
          Printf.printf "\nWRONG-PATH FAILURE at program %d (seed %d, %s)\n" i
            seed
            (Sdiq_harness.Technique.name tech);
          Printf.printf
            "replay: FUZZ_SEED=%d FUZZ_N=1 dune exec test/fuzz_main.exe\n"
            seed;
          Fmt.pr "%a@." Sdiq_check.Checker.pp_violation v)
      [ Sdiq_harness.Technique.Baseline; Sdiq_harness.Technique.Abella ]
  done;
  if !wp_failures > 0 then begin
    Printf.printf "\nfuzz: %d wrong-path pairs FAILED\n" !wp_failures;
    exit 1
  end;
  Printf.printf
    "fuzz: all %d programs commit identically with speculation on and off\n%!"
    n;
  (* Tightening lane: the optimizer must be invisible to architecture
     and sound by its own auditor. For every random program the
     tightened configuration (tag delivery — instruction stream
     untouched) must (a) re-audit with zero error findings under the
     trip-count-refined soundness pass, and (b) commit the exact same
     instruction stream and reach the exact same final architectural
     state as the baseline binary under the baseline policy. Any
     tightened window below the true need would stall or deadlock
     dispatch (caught by the checker / simulation limit) or show up as
     an audit error; any instruction-stream perturbation shows up as
     trace divergence. Tag delivery reuses redundant ISA bits on
     existing instructions ([Instr.tag]), which is metadata, not
     architecture — the comparison normalises it away and everything
     else must match bit for bit. *)
  let untag d =
    {
      d with
      Sdiq_isa.Exec.instr =
        { d.Sdiq_isa.Exec.instr with Sdiq_isa.Instr.tag = None };
    }
  in
  let tight_failures = ref 0 in
  for i = 0 to n - 1 do
    let seed = base_seed + i in
    let rng = Sdiq_util.Rng.create seed in
    let desc = Sdiq_workloads.Gen.random_desc rng in
    let prog = Sdiq_workloads.Gen.program_of_desc desc in
    let fail fmt =
      incr tight_failures;
      Printf.printf "\nTIGHTEN FAILURE at program %d (seed %d)\n" i seed;
      Printf.printf
        "replay: FUZZ_SEED=%d FUZZ_N=1 dune exec test/fuzz_main.exe\n" seed;
      Fmt.pr fmt
    in
    match Sdiq_analysis.Tighten.apply Sdiq_core.Annotate.Tagged prog with
    | exception e -> fail "tightening raised: %s@." (Printexc.to_string e)
    | _tightened, anns -> (
      let findings = Sdiq_analysis.Tighten.audit prog anns in
      let errors = Sdiq_analysis.Finding.errors findings in
      if errors > 0 then begin
        fail "tightened annotations audit with %d error(s)@." errors;
        List.iter
          (fun (f : Sdiq_analysis.Finding.t) ->
            if f.Sdiq_analysis.Finding.severity = Sdiq_analysis.Finding.Error
            then Fmt.pr "  %a@." Sdiq_analysis.Finding.pp f)
          findings
      end;
      match
        ( committed_trace Sdiq_cpu.Config.default prog
            Sdiq_harness.Technique.Baseline,
          committed_trace Sdiq_cpu.Config.default prog
            Sdiq_harness.Technique.Tightened )
      with
      | (trace_base, exec_base), (trace_tight, exec_tight) -> (
        if differ (Array.map untag trace_base) (Array.map untag trace_tight)
        then
          fail "committed trace differs between baseline and tightened@."
        else
          match state_mismatch exec_base exec_tight with
          | Some what ->
            fail "%s differs between baseline and tightened@." what
          | None -> ())
      | exception Sdiq_check.Checker.Invariant_violation v ->
        fail "%a@." Sdiq_check.Checker.pp_violation v
      | exception Sdiq_cpu.Pipeline.Simulation_limit msg ->
        fail "stuck: %s@." msg)
  done;
  if !tight_failures > 0 then begin
    Printf.printf "\nfuzz: %d tightened programs FAILED\n" !tight_failures;
    exit 1
  end;
  Printf.printf
    "fuzz: all %d programs tighten audit-clean with baseline-identical \
     commits\n"
    n;
  (* Quiet-skip lane: skipping quiet cycles must be invisible. With no
     sink subscribed, [step_cycle] jumps over runs of cycles that change
     nothing but statistics; any subscribed sink (here a null one) turns
     that off. The same derived seeds run both ways under every
     technique and scheduler, and must end with equal statistics, the
     same cycle and the same committed stream. The commits are read off
     the ROB head around each call rather than through a commit sink,
     which would itself turn skipping off: an instruction that commits
     during a call was among the oldest [commit_width] entries before
     it. *)
  let quiet_run ~sink prog tech sched =
    let prepared = Sdiq_harness.Technique.prepare tech prog in
    let p =
      Sdiq_cpu.Pipeline.create
        ~policy:(Sdiq_harness.Technique.policy tech)
        ~sched prepared
    in
    if sink then Sdiq_cpu.Pipeline.subscribe ~name:"null" p (fun _ -> ());
    let rob = Sdiq_cpu.Pipeline.Debug.rob p in
    let width = Sdiq_cpu.Config.default.Sdiq_cpu.Config.commit_width in
    let oldest = Array.make width Sdiq_cpu.Rob.dummy_dyn in
    let commits = ref [] in
    let max_cycles = 2_000_000 in
    let stats = p.Sdiq_cpu.Pipeline.stats in
    while not (Sdiq_cpu.Pipeline.drained p) do
      if p.Sdiq_cpu.Pipeline.cycle >= max_cycles then
        raise (Sdiq_cpu.Pipeline.Simulation_limit "quiet lane: no progress");
      let k = ref 0 in
      Sdiq_cpu.Rob.iter_in_flight rob (fun idx ->
          if !k < width then begin
            oldest.(!k) <- Sdiq_cpu.Rob.dyn rob idx;
            incr k
          end);
      let before = stats.Sdiq_cpu.Stats.committed in
      Sdiq_cpu.Pipeline.step_cycle ~limit:max_cycles p;
      for j = 0 to stats.Sdiq_cpu.Stats.committed - before - 1 do
        commits := oldest.(j) :: !commits
      done
    done;
    (stats, p.Sdiq_cpu.Pipeline.cycle, Array.of_list (List.rev !commits))
  in
  let quiet_failures = ref 0 in
  for i = 0 to n - 1 do
    let seed = base_seed + i in
    let rng = Sdiq_util.Rng.create seed in
    let desc = Sdiq_workloads.Gen.random_desc rng in
    let prog = Sdiq_workloads.Gen.program_of_desc desc in
    List.iter
      (fun sched ->
        List.iter
          (fun tech ->
            let fail what =
              incr quiet_failures;
              Printf.printf
                "\nQUIET-SKIP FAILURE at program %d (seed %d, %s, %s): %s\n" i
                seed
                (Sdiq_harness.Technique.name tech)
                (Sdiq_cpu.Sched.name sched)
                what;
              Printf.printf
                "replay: FUZZ_SEED=%d FUZZ_N=1 dune exec test/fuzz_main.exe\n"
                seed
            in
            match
              ( quiet_run ~sink:false prog tech sched,
                quiet_run ~sink:true prog tech sched )
            with
            | (s_skip, c_skip, t_skip), (s_step, c_step, t_step) ->
              if not (Sdiq_cpu.Stats.equal s_skip s_step) then
                fail "statistics differ with and without a sink"
              else if c_skip <> c_step then
                fail
                  (Printf.sprintf "final cycle %d without a sink, %d with one"
                     c_skip c_step)
              else if differ t_skip t_step then
                fail "committed stream differs with and without a sink"
            | exception Sdiq_cpu.Pipeline.Simulation_limit msg ->
              fail ("stuck: " ^ msg))
          Sdiq_harness.Technique.all)
      Sdiq_cpu.Sched.[ oldest_first; nskip ~n:4; load_delay ]
  done;
  if !quiet_failures > 0 then begin
    Printf.printf "\nfuzz: %d quiet-skip runs FAILED\n" !quiet_failures;
    exit 1
  end;
  Printf.printf
    "fuzz: all %d programs identical with quiet-cycle skipping on and off\n"
    n
