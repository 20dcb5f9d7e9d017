(** Time-resolved view of a run: periodic samples of queue occupancy,
    powered banks, the policy's current limit and register-file pressure —
    the data that exposes the adaptive scheme's sensing lag against
    program phases (Section 1 of the paper). *)

type sample = {
  cycle : int;
  committed : int;
  iq_occupancy : int;
  iq_banks_on : int;
  iq_active_size : int;
  policy_limit : int;
  rf_live : int;
}

type t = {
  samples : sample list; (** oldest first *)
  stats : Sdiq_cpu.Stats.t;
}

val record :
  ?config:Sdiq_cpu.Config.t ->
  ?interval:int ->
  ?max_insns:int ->
  Sdiq_workloads.Bench.t ->
  Technique.t ->
  t

(** Header row plus one line per sample. *)
val to_csv : t -> string
