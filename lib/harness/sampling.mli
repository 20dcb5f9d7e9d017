(** SMARTS-style sampled simulation: systematic periods of functional
    fast-forward ({!Sdiq_cpu.Pipeline.fast_forward}), detailed-but-
    unmeasured warmup, and one measured window whose statistics deltas
    feed a ratio estimator with Student-t confidence intervals.

    A sampled run is a pure function of (program, config): periods are
    placed deterministically, so results are identical on any domain
    count. Estimates carry a conservative relative-CI floor (15% of the
    mean below 30 windows, 2% from 30) — see DESIGN.md §13 for when a
    sampled figure is trustworthy. *)

type config = {
  ff_len : int;      (** fast-forwarded instructions per period *)
  warmup_len : int;  (** detailed, unmeasured instructions *)
  window_len : int;  (** detailed, measured instructions *)
}

(** 46k / 2k / 2k: 8% of the stream detailed, 4% measured. *)
val default : config

type estimate = {
  mean : float;     (** combined ratio estimate, Σx / Σy *)
  ci_half : float;  (** 95% CI half-width, conservative floor applied *)
  n : int;          (** measured windows *)
}

(** Is [v] inside the interval [mean ± ci_half]? *)
val contains : estimate -> float -> bool

(** [estimate xs ys]: the combined ratio Σx/Σy with a Student-t 95%
    interval over the per-window ratios, widened to the conservative
    floor. With fewer than two windows the half-width is [|mean|]. *)
val estimate : float array -> float array -> estimate

type result = {
  total_insns : int;     (** oracle instructions executed end to end *)
  detailed_insns : int;  (** instructions committed in measured windows *)
  windows : int;
  window_stats : Sdiq_cpu.Stats.t;  (** sum of the window deltas *)
  ipc : estimate;
  wakeups_per_insn : estimate;  (** gated wakeups per committed instr *)
  energy_per_insn : estimate;
      (** technique-view IQ energy (dynamic + static) per committed
          instr, priced with [params] *)
}

(** Sample a freshly built pipeline (policy installed, memory
    initialised, not yet stepped) to completion, or until the oracle has
    executed [max_insns] instructions. Raises
    {!Sdiq_cpu.Pipeline.Simulation_limit} if a detailed phase stops
    making progress. *)
val sample :
  ?config:config ->
  ?params:Sdiq_power.Params.t ->
  ?max_insns:int ->
  Sdiq_cpu.Pipeline.t ->
  result

(** [detailed_insns / total_insns] (0 on an empty run). *)
val detailed_fraction : result -> float

val pp : Format.formatter -> result -> unit
