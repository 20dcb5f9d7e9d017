(* SMARTS-style sampled simulation (Wunderlich et al., ISCA 2003,
   adapted to this machine).

   The run alternates three phases per sampling period:

     fast-forward (ff_len instructions)   — functional only: the oracle
         executes and the long-lived microarchitectural state (branch
         predictor, BTB, RAS, caches, policy regions) is trained exactly
         as detailed fetch would train it ([Pipeline.fast_forward]);
     warmup (warmup_len instructions)     — detailed simulation, not
         measured: the short-lived state (IQ/ROB contents, in-flight
         misses, rename maps) re-converges before measurement;
     window (window_len instructions)     — detailed and measured: the
         statistics deltas over the window are one sample.

   Periods are systematic (fixed length, deterministically placed), so a
   sampled run is a pure function of (program, config) — identical on
   any domain count — and the per-window deltas feed a ratio estimator
   with a Student-t confidence interval.

   Estimator: for a per-instruction quantity with window numerators
   x_j and denominators y_j (e.g. cycles over committed for CPI), the
   point estimate is the combined ratio (Σx)/(Σy) and the CI half-width
   is t_{0.975,n-1} · s/√n over the per-window ratios x_j/y_j, widened
   by a conservative floor (15% of the mean below 30 windows, 2%
   otherwise) — sampled figures are estimates and are never reported
   tighter than the methodology supports. *)

open Sdiq_cpu
module Spanlog = Sdiq_util.Spanlog

type config = {
  ff_len : int;
  warmup_len : int;
  window_len : int;
}

let default = { ff_len = 46_000; warmup_len = 2_000; window_len = 2_000 }

type estimate = {
  mean : float;
  ci_half : float;
  n : int;
}

let contains e v = Float.abs (v -. e.mean) <= e.ci_half

type result = {
  total_insns : int;
  detailed_insns : int;
  windows : int;
  window_stats : Stats.t;
  ipc : estimate;
  wakeups_per_insn : estimate;
  energy_per_insn : estimate;
}

(* Two-sided 95% Student-t quantiles, df 1..30; 1.96 beyond. *)
let t_table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
    2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
    2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042;
  |]

let t_quantile ~df =
  if df <= 0 then t_table.(0)
  else if df <= 30 then t_table.(df - 1)
  else 1.96

(* Ratio estimate over windows: numerators [xs], denominators [ys]. *)
let estimate xs ys =
  let n = Array.length xs in
  let sx = Array.fold_left ( +. ) 0. xs in
  let sy = Array.fold_left ( +. ) 0. ys in
  let mean = if sy = 0. then 0. else sx /. sy in
  if n < 2 then { mean; ci_half = Float.abs mean; n }
  else begin
    let r = Array.init n (fun j -> if ys.(j) = 0. then 0. else xs.(j) /. ys.(j)) in
    let rbar = Array.fold_left ( +. ) 0. r /. float_of_int n in
    let ss =
      Array.fold_left (fun acc v -> acc +. ((v -. rbar) ** 2.)) 0. r
    in
    let sd = sqrt (ss /. float_of_int (n - 1)) in
    let ci = t_quantile ~df:(n - 1) *. sd /. sqrt (float_of_int n) in
    let floor_frac = if n < 30 then 0.15 else 0.02 in
    { mean; ci_half = Float.max ci (floor_frac *. Float.abs mean); n }
  end

(* Detailed simulation until [insns] more instructions commit (or the
   machine drains). *)
let run_detailed (p : Pipeline.t) insns =
  let target = p.Pipeline.stats.Stats.committed + insns in
  (* Generous progress guard: a phase this short cannot legitimately
     need 1000 cycles per instruction. *)
  let deadline = p.Pipeline.cycle + (insns * 1000) + 1_000_000 in
  while
    (not (Pipeline.drained p))
    && p.Pipeline.stats.Stats.committed < target
  do
    if p.Pipeline.cycle >= deadline then
      raise
        (Pipeline.Simulation_limit
           (Printf.sprintf "Sampling: no progress toward %d commits at \
                            cycle %d" target p.Pipeline.cycle));
    Pipeline.step_cycle ~limit:deadline p
  done

(* Technique-view IQ energy (dynamic + static) of a stats delta. *)
let window_energy params (delta : Stats.t) =
  let e = Sdiq_power.Iq_power.technique params delta in
  e.Sdiq_power.Iq_power.dynamic +. e.Sdiq_power.Iq_power.static_

(* Sample one prepared pipeline to completion. The caller has built it
   (policy installed, memory initialised) but not stepped it. *)
let sample ?(config = default) ?(params = Sdiq_power.Params.default)
    ?(max_insns = max_int) (p : Pipeline.t) : result =
  if config.ff_len < 0 || config.warmup_len < 0 || config.window_len <= 0
  then invalid_arg "Sampling.sample: bad config";
  let num_cycles = ref [] and num_committed = ref [] in
  let num_gated = ref [] and num_energy = ref [] in
  let window_stats = Stats.create () in
  let windows = ref 0 in
  let finished () =
    Pipeline.drained p || p.Pipeline.exec.Sdiq_isa.Exec.steps >= max_insns
  in
  while not (finished ()) do
    (* Fast-forward through the bulk of the period... The phase spans
       are host-side telemetry only (Sdiq_util.Spanlog): one atomic
       load each when tracing is off, and never anything that touches
       the simulated machine, so sampled estimates are bit-identical
       with tracing on. The warmup/window guard is the post-drain check
       — once fast-forward starts, the period runs to completion even
       if the instruction budget is crossed mid-ff, exactly as before
       the spans were added (window geometry is part of the result). *)
    let in_period = ref false in
    Spanlog.with_span "sample.ff" (fun () ->
        Pipeline.drain p;
        if not (finished ()) then begin
          in_period := true;
          ignore (Pipeline.fast_forward p ~insns:config.ff_len : int)
        end);
    if !in_period then begin
      (* ...then resume detailed simulation: unmeasured warmup first, *)
      Spanlog.with_span "sample.warmup" (fun () ->
          Pipeline.set_fetch_hold p false;
          run_detailed p config.warmup_len);
      (* ...and one measured window. *)
      let before = Stats.copy p.Pipeline.stats in
      Spanlog.with_span "sample.window" (fun () ->
          run_detailed p config.window_len);
      let delta = Stats.diff p.Pipeline.stats before in
      if delta.Stats.committed > 0 then begin
        incr windows;
        Stats.add window_stats delta;
        num_cycles := float_of_int delta.Stats.cycles :: !num_cycles;
        num_committed := float_of_int delta.Stats.committed :: !num_committed;
        num_gated :=
          float_of_int delta.Stats.iq_wakeups_gated :: !num_gated;
        num_energy := window_energy params delta :: !num_energy
      end
    end
  done;
  let cyc = Array.of_list (List.rev !num_cycles) in
  let com = Array.of_list (List.rev !num_committed) in
  let gat = Array.of_list (List.rev !num_gated) in
  let nrg = Array.of_list (List.rev !num_energy) in
  {
    total_insns = p.Pipeline.exec.Sdiq_isa.Exec.steps;
    detailed_insns = window_stats.Stats.committed;
    windows = !windows;
    window_stats;
    ipc = estimate com cyc;
    wakeups_per_insn = estimate gat com;
    energy_per_insn = estimate nrg com;
  }

let detailed_fraction r =
  if r.total_insns = 0 then 0.
  else float_of_int r.detailed_insns /. float_of_int r.total_insns

let pp ppf r =
  Format.fprintf ppf
    "sampled: %d insns, %d windows (%.2f%% detailed); ipc %.3f ±%.3f; \
     gated wakeups/insn %.3f ±%.3f; iq energy/insn %.3g ±%.3g"
    r.total_insns r.windows
    (100. *. detailed_fraction r)
    r.ipc.mean r.ipc.ci_half r.wakeups_per_insn.mean
    r.wakeups_per_insn.ci_half r.energy_per_insn.mean
    r.energy_per_insn.ci_half
