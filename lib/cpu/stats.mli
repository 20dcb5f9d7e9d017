(** Simulation statistics: raw event counts and per-cycle integrals
    consumed by the power model and the experiment harness. *)

type t = {
  mutable cycles : int;
  mutable committed : int;
  mutable dispatched : int;
  mutable iqset_dispatch_slots : int;
  mutable iq_occupancy_sum : int;
  mutable iq_banks_on_sum : int;
  mutable iq_wakeups_gated : int;
  mutable iq_wakeups_nonempty : int;
  mutable iq_wakeups_naive : int;
  mutable iq_dispatch_ram_writes : int;
  mutable iq_dispatch_cam_writes : int;
  mutable iq_issue_reads : int;
  mutable iq_broadcasts : int;
  mutable iq_selects : int;
  mutable iq_scan_entries : int;
  mutable iq_wakeups_suppressed : int;
  mutable int_rf_reads : int;
  mutable int_rf_writes : int;
  mutable int_rf_banks_on_sum : int;
  mutable int_rf_live_sum : int;
  mutable fp_rf_reads : int;
  mutable fp_rf_writes : int;
  mutable fp_rf_banks_on_sum : int;
  mutable fetched : int;
  mutable branches : int;
  mutable mispredicts : int;
  mutable btb_bubbles : int;
  mutable il1_misses : int;
  mutable dl1_misses : int;
  mutable l2_misses : int;
  mutable loads : int;
  mutable stores : int;
  mutable store_forwards : int;
  mutable wp_fetched : int;
  mutable wp_dispatched : int;
  mutable wp_issued : int;
  mutable squashes : int;
  mutable squashed : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable dispatch_stall_policy : int;
  mutable dispatch_stall_iq_full : int;
  mutable dispatch_stall_rob_full : int;
  mutable dispatch_stall_no_reg : int;
  mutable dispatch_stall_lsq_full : int;
}

val create : unit -> t

(** The fold: apply one pipeline event's counter deltas. Any sink can
    reconstruct the pipeline's statistics from the event stream alone
    with it (the power meter and the region profiler do). The pipeline
    itself applies the same deltas inline in its per-kind emitters
    rather than calling this; the exactness tests pin the two equal
    (see DESIGN.md §11.3). *)
val absorb : t -> Sdiq_events.Event.t -> unit

(** [add a b] accumulates [b] into [a], field by field. Every field —
    including [cycles] — is a plain sum, so summing disjoint partial
    statistics (per-region attributions, per-shard folds) reproduces
    the global statistics exactly. *)
val add : t -> t -> unit

(** A field-for-field snapshot (fresh value, original untouched). *)
val copy : t -> t

(** [diff a b]: the field-wise difference [a - b] as a fresh value — the
    counter deltas accumulated between two snapshots. *)
val diff : t -> t -> t

(** Every field with its name, for field-by-field divergence reports. *)
val to_fields : t -> (string * int) list

val equal : t -> t -> bool
val ipc : t -> float
val avg_iq_occupancy : t -> float
val avg_iq_banks_on : t -> float
val avg_int_rf_banks_on : t -> float
val avg_int_rf_live : t -> float
val mispredict_rate : t -> float
val pp : Format.formatter -> t -> unit
