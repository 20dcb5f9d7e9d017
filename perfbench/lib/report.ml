(* Metrics of one benchmark run, derived from Campaign's raw timings and
   simulated statistics, and the lines the benchmark prints: digests,
   failures, one line per metric with its unit, and the JSON result. *)

module C = Campaign
module H = Sdiq_harness
module Stats = Sdiq_cpu.Stats
module Json = Sdiq_util.Json

type metric = { name : string; value : float; unit_ : string }

(* Name and unit of every metric, in print order, as BENCHMARK.json
   declares them under [key] ("end_to_end" or "per_layer"). *)
let declared ~file key =
  let doc =
    match Json.parse (In_channel.with_open_text file In_channel.input_all) with
    | Ok doc -> doc
    | Error e -> failwith (file ^ ": " ^ e)
  in
  match Option.bind (Json.member key doc) Json.to_list with
  | None -> failwith (Printf.sprintf "%s: no %s list" file key)
  | Some ms ->
    List.map
      (fun m ->
        let str k =
          match Option.bind (Json.member k m) Json.to_str with
          | Some v -> v
          | None ->
            failwith (Printf.sprintf "%s: a %s metric lacks %s" file key k)
        in
        (str "name", str "unit"))
      ms

let kernel_names = Sdiq_workloads.Suite.names ()

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let outcomes (ph : C.phase) =
  List.concat
    (List.init (Array.length ph.C.first) (fun k ->
         match ph.C.first.(k) with
         | Some o -> [ (ph.C.labels.(k), o, ph.C.times.(k)) ]
         | None -> []))

(* A pair run's host time, as measured or [scaled] to the reference
   host: a shared host's speed drifts by tens of percent over minutes as
   other tenants come and go, and the calibration runs on either side of
   the pair measure it. *)
let run_ns ~scaled (ns, cal) =
  if scaled then fi ns *. ratio (fi C.reference_calibration_ns) (fi cal)
  else fi ns

(* Simulated instructions over the summed per-pair median host times:
   a pair slowed by a burst of host noise in one round does not move
   the figure. *)
let insns_and_ns ?(scaled = false) ph =
  List.fold_left
    (fun (i, ns) (_, (o : C.outcome), times) ->
      (i + o.C.insns, ns +. median (List.map (run_ns ~scaled) times)))
    (0, 0.) ph

(* How much slower than the reference host this host ran during the
   phase: the median time of the calibration runs over their reference
   time. *)
let slowdown (ph : C.phase) =
  ratio
    (median (List.map fi ph.C.calibration))
    (fi C.reference_calibration_ns)

(* Summed over pairs: the median over runs of each pair's instantiation
   time, [f] picking create alone or the whole instantiation. *)
let instantiation_s (ph : C.phase) f =
  Array.fold_left
    (fun acc l -> acc +. median (List.map (fun x -> fi (f x)) l))
    0. ph.C.inst_times
  /. 1e9

(* The set-up median plus every pair's instantiation: the host time the
   campaign spends before simulating, whether up front or per pair. *)
let setup_s (r : C.run) =
  median (List.map (fun s -> fi s.C.total_ns /. 1e9) r.C.setups)
  +. instantiation_s r.C.untraced snd

let mips ?scaled ph =
  let i, ns = insns_and_ns ?scaled (outcomes ph) in
  ratio (fi i *. 1e3) ns

(* Peak resident memory of this process (Linux); the GC's peak major
   heap elsewhere. *)
let heap_peak_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (fi kb /. 1024.))
            | Some _ -> scan ()
          in
          scan ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* Suite averages of the NOOP savings against baseline, over the
   kernels whose two runs both succeeded — Figs. 6 and 8 at seed 0. *)
let noop_savings ph =
  let find b t =
    List.find_map
      (fun ((b', t'), (o : C.outcome), _) ->
        if b = b' && t = t' then Some o.C.stats else None)
      ph
  in
  let reports =
    List.filter_map
      (fun b ->
        match (find b H.Technique.Baseline, find b H.Technique.Noop) with
        | Some base, Some noop ->
          Some (Sdiq_power.Report.compute ~base noop)
        | _ -> None)
      kernel_names
  in
  let avg f = Sdiq_util.Stat.mean_of (List.map f reports) in
  ( avg (fun r -> r.Sdiq_power.Report.ipc_loss_pct),
    avg (fun r -> r.Sdiq_power.Report.iq_dynamic_saving_pct) )

let ipc_ci_half_pct ph =
  Sdiq_util.Stat.mean_of
    (List.map
       (fun (_, (o : C.outcome), _) ->
         100. *. ratio o.C.ipc.H.Sampling.ci_half o.C.ipc.H.Sampling.mean)
       ph)

(* The paper's averages, read from the figure generators themselves:
   one-instruction runs of one tiny kernel are enough to build the
   figures that carry them. *)
let paper_refs () =
  let r =
    H.Runner.create ~domains:1 ~budget:1
      ~benches:[ List.hd (Sdiq_workloads.Suite.tiny ()) ]
      ()
  in
  let avg (e : H.Experiments.exp) =
    (List.hd e.H.Experiments.columns).H.Experiments.paper_avg
  in
  (avg (H.Experiments.fig6 r), avg (H.Experiments.fig8 r))

let end_to_end_values (r : C.run) =
  let ph = outcomes r.C.untraced in
  let loss, saving = noop_savings ph in
  [
    ("mips", mips ~scaled:true r.C.untraced);
    ("setup_s", ratio (setup_s r) (slowdown r.C.untraced));
    ("heap_peak_mb", heap_peak_mb ());
    ("noop_ipc_loss_pct", loss);
    ("noop_iq_dyn_saving_pct", saving);
    ("ipc_ci_half_pct", ipc_ci_half_pct ph);
  ]

let per_layer_values (r : C.run) (traced, (tm : C.timers), spans) =
  let ph = outcomes r.C.untraced in
  let setup_median f =
    median (List.map (fun s -> fi (f s) /. 1e9) r.C.setups)
  in
  let prepare tech =
    setup_median (fun s ->
        Option.value ~default:0 (List.assoc_opt tech s.C.prepare_ns))
  in
  let sum = Stats.create () in
  List.iter (fun (_, (o : C.outcome), _) -> Stats.add sum o.C.stats) ph;
  let per_kinsn n = 1000. *. ratio (fi n) (fi sum.Stats.committed) in
  let per_kcycle n = 1000. *. ratio (fi n) (fi sum.Stats.cycles) in
  let step_ns = fi (tm.C.cp_ns + tm.C.wp_ns) in
  let sampled = r.C.workload = C.Sampled in
  let pair_ns = fi (C.span_ns "pair" spans) in
  let phase_share name =
    if sampled then ratio (fi (C.span_ns name spans)) pair_ns else 0.
  in
  let events_per_insn = ratio (fi tm.C.events) (fi tm.C.insns) in
  (* Bus cost: step time with sinks, less the time inside the sinks,
     less the step time of the same pairs with no sink, per event. *)
  let emit_ns =
    match r.C.nosink with
    | Some (_, ntm) ->
      let per_insn =
        ratio (step_ns -. fi (tm.C.counts_ns + tm.C.prof_ns)) (fi tm.C.insns)
        -. ratio (fi (ntm.C.cp_ns + ntm.C.wp_ns)) (fi ntm.C.insns)
      in
      ratio per_insn events_per_insn
    | None -> 0.
  in
  let insn_ns b =
    let i, ns = insns_and_ns (List.filter (fun ((b', _), _, _) -> b = b') ph) in
    ratio ns (fi i)
  in
  [
    ("workloads.build_s", setup_median (fun s -> s.C.build_ns));
    ("analysis.prepare_s.noop", prepare H.Technique.Noop);
    ("analysis.prepare_s.extension", prepare H.Technique.Extension);
    ("analysis.prepare_s.improved", prepare H.Technique.Improved);
    ("cpu.create_s", instantiation_s r.C.untraced fst);
    ("cpu.cycle_ns", ratio step_ns (fi (tm.C.cp_cycles + tm.C.wp_cycles)));
    ("cpu.cycle_ns.wp", ratio (fi tm.C.wp_ns) (fi tm.C.wp_cycles));
    ("cpu.cycle_ns.cp", ratio (fi tm.C.cp_ns) (fi tm.C.cp_cycles));
    ("cpu.wp_time_share", ratio (fi tm.C.wp_ns) step_ns);
  ]
  @ List.map (fun b -> ("cpu.insn_ns." ^ b, insn_ns b)) kernel_names
  @ [
      ("cpu.ff_insn_ns", ratio (fi tm.C.ff_ns) (fi tm.C.ff_insns));
      ("harness.sample.ff_share", phase_share "sample.ff");
      ("harness.sample.warmup_share", phase_share "sample.warmup");
      ("harness.sample.window_share", phase_share "sample.window");
      ( "harness.sample.windows",
        if sampled then
          fi
            (List.fold_left
               (fun a (_, (o : C.outcome), _) -> a + o.C.windows)
               0 ph)
        else 0. );
      ( "harness.sample.detailed_fraction",
        if sampled then
          let i, _ = insns_and_ns ph in
          ratio (fi sum.Stats.committed) (fi i)
        else 0. );
      ("events.per_insn", events_per_insn);
      ("events.emit_ns", emit_ns);
      ("obs.profiler.event_ns", ratio (fi tm.C.prof_ns) (fi tm.C.events));
      ( "obs.sink_time_share",
        ratio (fi (tm.C.counts_ns + tm.C.prof_ns)) step_ns );
      ("cpu.ipc", ratio (fi sum.Stats.committed) (fi sum.Stats.cycles));
      ( "cpu.useful_fetch_ratio",
        ratio (fi sum.Stats.committed) (fi sum.Stats.fetched) );
      ("cpu.squashes_per_kinsn", per_kinsn sum.Stats.squashes);
      ( "cpu.iq_scan_per_cycle",
        ratio (fi sum.Stats.iq_scan_entries) (fi sum.Stats.cycles) );
      ( "cpu.wakeups_per_insn",
        ratio (fi sum.Stats.iq_wakeups_gated) (fi sum.Stats.committed) );
      ("cpu.il1_mpki", per_kinsn sum.Stats.il1_misses);
      ("cpu.dl1_mpki", per_kinsn sum.Stats.dl1_misses);
      ("cpu.l2_mpki", per_kinsn sum.Stats.l2_misses);
      ("cpu.dispatch_stall.policy", per_kcycle sum.Stats.dispatch_stall_policy);
      ( "cpu.dispatch_stall.iq_full",
        per_kcycle sum.Stats.dispatch_stall_iq_full );
      ( "cpu.dispatch_stall.rob_full",
        per_kcycle sum.Stats.dispatch_stall_rob_full );
      ("cpu.dispatch_stall.no_reg", per_kcycle sum.Stats.dispatch_stall_no_reg);
      ( "cpu.dispatch_stall.lsq_full",
        per_kcycle sum.Stats.dispatch_stall_lsq_full );
      ( "trace.overhead_pct",
        100.
        *. (ratio (mips ~scaled:true r.C.untraced) (mips ~scaled:true traced)
           -. 1.) );
      ("host.raw_mips", mips r.C.untraced);
      ("host.slowdown", slowdown r.C.untraced);
    ]

(* The metrics [declared] for the run: the end-to-end ones untraced,
   the per-layer ones traced. *)
let metrics ~declared (r : C.run) =
  let key, values =
    match r.C.traced with
    | None -> ("end_to_end", end_to_end_values r)
    | Some t -> ("per_layer", per_layer_values r t)
  in
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some value -> { name; value; unit_ }
      | None -> failwith (Printf.sprintf "no %s metric named %s" key name))
    (declared key)

let phases (r : C.run) =
  r.C.untraced
  :: (Option.to_list (Option.map (fun (p, _, _) -> p) r.C.traced)
     @ Option.to_list (Option.map fst r.C.nosink))

let failures r =
  List.concat_map (fun (ph : C.phase) -> ph.C.failures) (phases r)
  @ r.C.mismatches

let attempted r =
  List.fold_left (fun a (ph : C.phase) -> a + ph.C.attempted) 0 (phases r)

(* The printed report; its last line is the JSON result. *)
let lines ~declared (r : C.run) =
  let w = C.workload_name r.C.workload in
  let ph = outcomes r.C.untraced in
  let digests =
    List.map
      (fun (l, (o : C.outcome), _) ->
        Printf.sprintf "digest %s %s %s" w (C.label l) o.C.digest)
      ph
  in
  let all =
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (List.map (fun (_, (o : C.outcome), _) -> o.C.digest) ph)))
  in
  let ms = metrics ~declared r in
  let fs = failures r in
  let paper =
    match r.C.traced with
    | Some _ -> []
    | None ->
      let fig6, fig8 = paper_refs () in
      [
        ("noop_ipc_loss_pct", ("Fig. 6", fig6));
        ("noop_iq_dyn_saving_pct", ("Fig. 8", fig8));
      ]
  in
  let line m =
    Printf.sprintf "%-34s %14.6g %s%s" m.name m.value m.unit_
      (match List.assoc_opt m.name paper with
      | Some (fig, Some v) ->
        Printf.sprintf "   (paper, %s: %g%s)" fig v m.unit_
      | Some (_, None) | None -> "")
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (fs = []));
        ("attempted", Json.Num (fi (attempted r)));
        ("failed", Json.Num (fi (List.length fs)));
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Json.Obj
                     [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
                 ))
               ms) );
      ]
  in
  let host =
    Printf.sprintf
      "host: %.4f Minsn/s as measured; the calibration runs took %.3fx \
       their reference time (median), and mips, each pair run scaled by \
       the calibration runs around it, reads %.4f on the reference host"
      (mips r.C.untraced) (slowdown r.C.untraced)
      (mips ~scaled:true r.C.untraced)
  in
  (Printf.sprintf "workload %s seed %d" w r.C.seed :: digests)
  @ [ Printf.sprintf "digest %s all %s" w all ]
  @ List.map (fun f -> "FAILED " ^ f) fs
  @ [
      Printf.sprintf "pairs: %d attempted, %d failed" (attempted r)
        (List.length fs);
    ]
  @ (host :: List.map line ms)
  @ (if paper = [] then []
     else
       [
         "the kernels are synthetic stand-ins for SPECint2000 (DESIGN.md \
          section 2): a gap to the paper reflects that substitution and is \
          not a validated error";
       ])
  @ [ Json.to_string result ]
