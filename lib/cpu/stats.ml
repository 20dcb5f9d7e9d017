(* Simulation statistics: the raw event counts and per-cycle integrals the
   power model and the experiment harness consume. *)

type t = {
  mutable cycles : int;
  mutable committed : int;         (* program instructions retired *)
  mutable dispatched : int;        (* instructions entering the IQ *)
  mutable iqset_dispatch_slots : int; (* dispatch slots eaten by special NOOPs *)
  (* issue queue activity *)
  mutable iq_occupancy_sum : int;      (* valid entries, integrated per cycle *)
  mutable iq_banks_on_sum : int;
  mutable iq_wakeups_gated : int;
  mutable iq_wakeups_nonempty : int;
  mutable iq_wakeups_naive : int;
  mutable iq_dispatch_ram_writes : int;
  mutable iq_dispatch_cam_writes : int;
  mutable iq_issue_reads : int;
  mutable iq_broadcasts : int;
  mutable iq_selects : int;
  mutable iq_scan_entries : int;   (* slots the select scan examined *)
  mutable iq_wakeups_suppressed : int; (* CAM ports suppressed as
                                          predicted-ready (load-delay) *)
  (* register files *)
  mutable int_rf_reads : int;
  mutable int_rf_writes : int;
  mutable int_rf_banks_on_sum : int;
  mutable int_rf_live_sum : int;
  mutable fp_rf_reads : int;
  mutable fp_rf_writes : int;
  mutable fp_rf_banks_on_sum : int;
  (* frontend *)
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
  (* speculation: wrong-path activity and squash traffic *)
  mutable wp_fetched : int;        (* wrong-path instructions fetched *)
  mutable wp_dispatched : int;     (* ... renamed into IQ/ROB *)
  mutable wp_issued : int;         (* ... issued to functional units *)
  mutable squashes : int;          (* resolution episodes *)
  mutable squashed : int;          (* wrong-path instructions discarded *)
  (* TLBs *)
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  (* stalls *)
  mutable dispatch_stall_policy : int;  (* cycles throttled by the policy *)
  mutable dispatch_stall_iq_full : int;
  mutable dispatch_stall_rob_full : int;
  mutable dispatch_stall_no_reg : int;
  mutable dispatch_stall_lsq_full : int;
}

let create () =
  {
    cycles = 0;
    committed = 0;
    dispatched = 0;
    iqset_dispatch_slots = 0;
    iq_occupancy_sum = 0;
    iq_banks_on_sum = 0;
    iq_wakeups_gated = 0;
    iq_wakeups_nonempty = 0;
    iq_wakeups_naive = 0;
    iq_dispatch_ram_writes = 0;
    iq_dispatch_cam_writes = 0;
    iq_issue_reads = 0;
    iq_broadcasts = 0;
    iq_selects = 0;
    iq_scan_entries = 0;
    iq_wakeups_suppressed = 0;
    int_rf_reads = 0;
    int_rf_writes = 0;
    int_rf_banks_on_sum = 0;
    int_rf_live_sum = 0;
    fp_rf_reads = 0;
    fp_rf_writes = 0;
    fp_rf_banks_on_sum = 0;
    fetched = 0;
    branches = 0;
    mispredicts = 0;
    btb_bubbles = 0;
    il1_misses = 0;
    dl1_misses = 0;
    l2_misses = 0;
    loads = 0;
    stores = 0;
    store_forwards = 0;
    wp_fetched = 0;
    wp_dispatched = 0;
    wp_issued = 0;
    squashes = 0;
    squashed = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    dispatch_stall_policy = 0;
    dispatch_stall_iq_full = 0;
    dispatch_stall_rob_full = 0;
    dispatch_stall_no_reg = 0;
    dispatch_stall_lsq_full = 0;
  }

(* The fold: how one pipeline event updates the counters — the
   external sinks' fold (the power meter, the region profiler), which
   reconstructs the pipeline's statistics from the stream alone. The
   pipeline's per-kind emitters apply the same clauses inline, and the
   exactness tests pin the two equal.

   Counter-bearing events carry deltas, so absorbing a stream prefix
   yields correct partial sums; [Cycle_end] carries the per-cycle
   integrand snapshot, making the `*_sum` fields true per-cycle
   integrals. Events with no counter meaning (writeback, resize, bank
   transitions) absorb to nothing. *)
let absorb t (ev : Sdiq_events.Event.t) =
  let open Sdiq_events.Event in
  match ev with
  | Fetch { outcome; wp; _ } -> (
    t.fetched <- t.fetched + 1;
    (* Wrong-path fetches count as frontend activity but never as
       branch-prediction outcomes: the predictor is neither consulted
       for correctness nor trained down the wrong path. *)
    if wp then t.wp_fetched <- t.wp_fetched + 1
    else
      match outcome with
      | Sequential -> ()
      | Cond_branch { mispredicted; btb_bubble; _ } ->
        t.branches <- t.branches + 1;
        if mispredicted then t.mispredicts <- t.mispredicts + 1;
        if btb_bubble then t.btb_bubbles <- t.btb_bubbles + 1
      | Jump { btb_bubble } | Call { btb_bubble } ->
        if btb_bubble then t.btb_bubbles <- t.btb_bubbles + 1
      | Return { mispredicted } ->
        t.branches <- t.branches + 1;
        if mispredicted then t.mispredicts <- t.mispredicts + 1)
  | Annotation { delivery = Noop_slot; _ } ->
    t.iqset_dispatch_slots <- t.iqset_dispatch_slots + 1
  | Annotation { delivery = Tag; _ } -> ()
  | Dispatch { kind; cam_writes; wp; _ } ->
    t.dispatched <- t.dispatched + 1;
    t.iq_dispatch_ram_writes <- t.iq_dispatch_ram_writes + 1;
    t.iq_dispatch_cam_writes <- t.iq_dispatch_cam_writes + cam_writes;
    if wp then t.wp_dispatched <- t.wp_dispatched + 1;
    (match kind with
    | Plain -> ()
    | Load -> t.loads <- t.loads + 1
    | Store -> t.stores <- t.stores + 1)
  | Dispatch_stall Policy_limit ->
    t.dispatch_stall_policy <- t.dispatch_stall_policy + 1
  | Dispatch_stall Iq_full ->
    t.dispatch_stall_iq_full <- t.dispatch_stall_iq_full + 1
  | Dispatch_stall Rob_full ->
    t.dispatch_stall_rob_full <- t.dispatch_stall_rob_full + 1
  | Dispatch_stall No_reg ->
    t.dispatch_stall_no_reg <- t.dispatch_stall_no_reg + 1
  | Dispatch_stall Lsq_full ->
    t.dispatch_stall_lsq_full <- t.dispatch_stall_lsq_full + 1
  | Wakeup { tags; naive; nonempty; gated; suppressed; woken = _ } ->
    t.iq_broadcasts <- t.iq_broadcasts + tags;
    t.iq_wakeups_naive <- t.iq_wakeups_naive + naive;
    t.iq_wakeups_nonempty <- t.iq_wakeups_nonempty + nonempty;
    t.iq_wakeups_gated <- t.iq_wakeups_gated + gated;
    t.iq_wakeups_suppressed <- t.iq_wakeups_suppressed + suppressed
  | Select _ -> t.iq_selects <- t.iq_selects + 1
  | Select_scan { entries } -> t.iq_scan_entries <- t.iq_scan_entries + entries
  | Issue { store_forward; wp; _ } ->
    t.iq_issue_reads <- t.iq_issue_reads + 1;
    if store_forward then t.store_forwards <- t.store_forwards + 1;
    if wp then t.wp_issued <- t.wp_issued + 1
  | Writeback _ -> ()
  | Rf_read { ints; fps } ->
    t.int_rf_reads <- t.int_rf_reads + ints;
    t.fp_rf_reads <- t.fp_rf_reads + fps
  | Rf_write { file = Int_rf; _ } -> t.int_rf_writes <- t.int_rf_writes + 1
  | Rf_write { file = Fp_rf; _ } -> t.fp_rf_writes <- t.fp_rf_writes + 1
  | Commit _ -> t.committed <- t.committed + 1
  | Squash { squashed; _ } ->
    t.squashes <- t.squashes + 1;
    t.squashed <- t.squashed + squashed
  | Cache_miss { level = Il1; _ } -> t.il1_misses <- t.il1_misses + 1
  | Cache_miss { level = Dl1; _ } -> t.dl1_misses <- t.dl1_misses + 1
  | Cache_miss { level = L2; _ } -> t.l2_misses <- t.l2_misses + 1
  | Tlb_miss { tlb = Itlb; _ } -> t.itlb_misses <- t.itlb_misses + 1
  | Tlb_miss { tlb = Dtlb; _ } -> t.dtlb_misses <- t.dtlb_misses + 1
  | Resize _ | Bank_gated _ | Bank_ungated _ -> ()
  | Cycle_end
      {
        cycle;
        throttled = _;
        iq_occupancy;
        iq_banks_on;
        int_rf_banks_on;
        int_rf_live;
        fp_rf_banks_on;
      } ->
    t.cycles <- cycle + 1;
    t.iq_occupancy_sum <- t.iq_occupancy_sum + iq_occupancy;
    t.iq_banks_on_sum <- t.iq_banks_on_sum + iq_banks_on;
    t.int_rf_banks_on_sum <- t.int_rf_banks_on_sum + int_rf_banks_on;
    t.int_rf_live_sum <- t.int_rf_live_sum + int_rf_live;
    t.fp_rf_banks_on_sum <- t.fp_rf_banks_on_sum + fp_rf_banks_on

(* Field-wise accumulation: [add a b] folds [b]'s counters into [a].
   Every field is a plain sum, including [cycles] — so summing disjoint
   per-region statistics (where each region's [cycles] counts the
   cycles attributed to it) reproduces a run's global statistics
   exactly. *)
let add a b =
  a.cycles <- a.cycles + b.cycles;
  a.committed <- a.committed + b.committed;
  a.dispatched <- a.dispatched + b.dispatched;
  a.iqset_dispatch_slots <- a.iqset_dispatch_slots + b.iqset_dispatch_slots;
  a.iq_occupancy_sum <- a.iq_occupancy_sum + b.iq_occupancy_sum;
  a.iq_banks_on_sum <- a.iq_banks_on_sum + b.iq_banks_on_sum;
  a.iq_wakeups_gated <- a.iq_wakeups_gated + b.iq_wakeups_gated;
  a.iq_wakeups_nonempty <- a.iq_wakeups_nonempty + b.iq_wakeups_nonempty;
  a.iq_wakeups_naive <- a.iq_wakeups_naive + b.iq_wakeups_naive;
  a.iq_dispatch_ram_writes <-
    a.iq_dispatch_ram_writes + b.iq_dispatch_ram_writes;
  a.iq_dispatch_cam_writes <-
    a.iq_dispatch_cam_writes + b.iq_dispatch_cam_writes;
  a.iq_issue_reads <- a.iq_issue_reads + b.iq_issue_reads;
  a.iq_broadcasts <- a.iq_broadcasts + b.iq_broadcasts;
  a.iq_selects <- a.iq_selects + b.iq_selects;
  a.iq_scan_entries <- a.iq_scan_entries + b.iq_scan_entries;
  a.iq_wakeups_suppressed <- a.iq_wakeups_suppressed + b.iq_wakeups_suppressed;
  a.int_rf_reads <- a.int_rf_reads + b.int_rf_reads;
  a.int_rf_writes <- a.int_rf_writes + b.int_rf_writes;
  a.int_rf_banks_on_sum <- a.int_rf_banks_on_sum + b.int_rf_banks_on_sum;
  a.int_rf_live_sum <- a.int_rf_live_sum + b.int_rf_live_sum;
  a.fp_rf_reads <- a.fp_rf_reads + b.fp_rf_reads;
  a.fp_rf_writes <- a.fp_rf_writes + b.fp_rf_writes;
  a.fp_rf_banks_on_sum <- a.fp_rf_banks_on_sum + b.fp_rf_banks_on_sum;
  a.fetched <- a.fetched + b.fetched;
  a.branches <- a.branches + b.branches;
  a.mispredicts <- a.mispredicts + b.mispredicts;
  a.btb_bubbles <- a.btb_bubbles + b.btb_bubbles;
  a.il1_misses <- a.il1_misses + b.il1_misses;
  a.dl1_misses <- a.dl1_misses + b.dl1_misses;
  a.l2_misses <- a.l2_misses + b.l2_misses;
  a.loads <- a.loads + b.loads;
  a.stores <- a.stores + b.stores;
  a.store_forwards <- a.store_forwards + b.store_forwards;
  a.wp_fetched <- a.wp_fetched + b.wp_fetched;
  a.wp_dispatched <- a.wp_dispatched + b.wp_dispatched;
  a.wp_issued <- a.wp_issued + b.wp_issued;
  a.squashes <- a.squashes + b.squashes;
  a.squashed <- a.squashed + b.squashed;
  a.itlb_misses <- a.itlb_misses + b.itlb_misses;
  a.dtlb_misses <- a.dtlb_misses + b.dtlb_misses;
  a.dispatch_stall_policy <- a.dispatch_stall_policy + b.dispatch_stall_policy;
  a.dispatch_stall_iq_full <-
    a.dispatch_stall_iq_full + b.dispatch_stall_iq_full;
  a.dispatch_stall_rob_full <-
    a.dispatch_stall_rob_full + b.dispatch_stall_rob_full;
  a.dispatch_stall_no_reg <- a.dispatch_stall_no_reg + b.dispatch_stall_no_reg;
  a.dispatch_stall_lsq_full <-
    a.dispatch_stall_lsq_full + b.dispatch_stall_lsq_full

(* A field-for-field snapshot; the sampling harness diffs snapshots
   taken around each measured window. *)
let copy t =
  {
    cycles = t.cycles;
    committed = t.committed;
    dispatched = t.dispatched;
    iqset_dispatch_slots = t.iqset_dispatch_slots;
    iq_occupancy_sum = t.iq_occupancy_sum;
    iq_banks_on_sum = t.iq_banks_on_sum;
    iq_wakeups_gated = t.iq_wakeups_gated;
    iq_wakeups_nonempty = t.iq_wakeups_nonempty;
    iq_wakeups_naive = t.iq_wakeups_naive;
    iq_dispatch_ram_writes = t.iq_dispatch_ram_writes;
    iq_dispatch_cam_writes = t.iq_dispatch_cam_writes;
    iq_issue_reads = t.iq_issue_reads;
    iq_broadcasts = t.iq_broadcasts;
    iq_selects = t.iq_selects;
    iq_scan_entries = t.iq_scan_entries;
    iq_wakeups_suppressed = t.iq_wakeups_suppressed;
    int_rf_reads = t.int_rf_reads;
    int_rf_writes = t.int_rf_writes;
    int_rf_banks_on_sum = t.int_rf_banks_on_sum;
    int_rf_live_sum = t.int_rf_live_sum;
    fp_rf_reads = t.fp_rf_reads;
    fp_rf_writes = t.fp_rf_writes;
    fp_rf_banks_on_sum = t.fp_rf_banks_on_sum;
    fetched = t.fetched;
    branches = t.branches;
    mispredicts = t.mispredicts;
    btb_bubbles = t.btb_bubbles;
    il1_misses = t.il1_misses;
    dl1_misses = t.dl1_misses;
    l2_misses = t.l2_misses;
    loads = t.loads;
    stores = t.stores;
    store_forwards = t.store_forwards;
    wp_fetched = t.wp_fetched;
    wp_dispatched = t.wp_dispatched;
    wp_issued = t.wp_issued;
    squashes = t.squashes;
    squashed = t.squashed;
    itlb_misses = t.itlb_misses;
    dtlb_misses = t.dtlb_misses;
    dispatch_stall_policy = t.dispatch_stall_policy;
    dispatch_stall_iq_full = t.dispatch_stall_iq_full;
    dispatch_stall_rob_full = t.dispatch_stall_rob_full;
    dispatch_stall_no_reg = t.dispatch_stall_no_reg;
    dispatch_stall_lsq_full = t.dispatch_stall_lsq_full;
  }

(* [diff a b]: the per-field difference [a - b] as a fresh value —
   the counter deltas accumulated between two snapshots. *)
let diff a b =
  {
    cycles = a.cycles - b.cycles;
    committed = a.committed - b.committed;
    dispatched = a.dispatched - b.dispatched;
    iqset_dispatch_slots = a.iqset_dispatch_slots - b.iqset_dispatch_slots;
    iq_occupancy_sum = a.iq_occupancy_sum - b.iq_occupancy_sum;
    iq_banks_on_sum = a.iq_banks_on_sum - b.iq_banks_on_sum;
    iq_wakeups_gated = a.iq_wakeups_gated - b.iq_wakeups_gated;
    iq_wakeups_nonempty = a.iq_wakeups_nonempty - b.iq_wakeups_nonempty;
    iq_wakeups_naive = a.iq_wakeups_naive - b.iq_wakeups_naive;
    iq_dispatch_ram_writes = a.iq_dispatch_ram_writes - b.iq_dispatch_ram_writes;
    iq_dispatch_cam_writes = a.iq_dispatch_cam_writes - b.iq_dispatch_cam_writes;
    iq_issue_reads = a.iq_issue_reads - b.iq_issue_reads;
    iq_broadcasts = a.iq_broadcasts - b.iq_broadcasts;
    iq_selects = a.iq_selects - b.iq_selects;
    iq_scan_entries = a.iq_scan_entries - b.iq_scan_entries;
    iq_wakeups_suppressed =
      a.iq_wakeups_suppressed - b.iq_wakeups_suppressed;
    int_rf_reads = a.int_rf_reads - b.int_rf_reads;
    int_rf_writes = a.int_rf_writes - b.int_rf_writes;
    int_rf_banks_on_sum = a.int_rf_banks_on_sum - b.int_rf_banks_on_sum;
    int_rf_live_sum = a.int_rf_live_sum - b.int_rf_live_sum;
    fp_rf_reads = a.fp_rf_reads - b.fp_rf_reads;
    fp_rf_writes = a.fp_rf_writes - b.fp_rf_writes;
    fp_rf_banks_on_sum = a.fp_rf_banks_on_sum - b.fp_rf_banks_on_sum;
    fetched = a.fetched - b.fetched;
    branches = a.branches - b.branches;
    mispredicts = a.mispredicts - b.mispredicts;
    btb_bubbles = a.btb_bubbles - b.btb_bubbles;
    il1_misses = a.il1_misses - b.il1_misses;
    dl1_misses = a.dl1_misses - b.dl1_misses;
    l2_misses = a.l2_misses - b.l2_misses;
    loads = a.loads - b.loads;
    stores = a.stores - b.stores;
    store_forwards = a.store_forwards - b.store_forwards;
    wp_fetched = a.wp_fetched - b.wp_fetched;
    wp_dispatched = a.wp_dispatched - b.wp_dispatched;
    wp_issued = a.wp_issued - b.wp_issued;
    squashes = a.squashes - b.squashes;
    squashed = a.squashed - b.squashed;
    itlb_misses = a.itlb_misses - b.itlb_misses;
    dtlb_misses = a.dtlb_misses - b.dtlb_misses;
    dispatch_stall_policy = a.dispatch_stall_policy - b.dispatch_stall_policy;
    dispatch_stall_iq_full = a.dispatch_stall_iq_full - b.dispatch_stall_iq_full;
    dispatch_stall_rob_full = a.dispatch_stall_rob_full - b.dispatch_stall_rob_full;
    dispatch_stall_no_reg = a.dispatch_stall_no_reg - b.dispatch_stall_no_reg;
    dispatch_stall_lsq_full =
      a.dispatch_stall_lsq_full - b.dispatch_stall_lsq_full;
  }

(* Every field with its name, for field-by-field divergence reports. *)
let to_fields t =
  [
    ("cycles", t.cycles);
    ("committed", t.committed);
    ("dispatched", t.dispatched);
    ("iqset_dispatch_slots", t.iqset_dispatch_slots);
    ("iq_occupancy_sum", t.iq_occupancy_sum);
    ("iq_banks_on_sum", t.iq_banks_on_sum);
    ("iq_wakeups_gated", t.iq_wakeups_gated);
    ("iq_wakeups_nonempty", t.iq_wakeups_nonempty);
    ("iq_wakeups_naive", t.iq_wakeups_naive);
    ("iq_dispatch_ram_writes", t.iq_dispatch_ram_writes);
    ("iq_dispatch_cam_writes", t.iq_dispatch_cam_writes);
    ("iq_issue_reads", t.iq_issue_reads);
    ("iq_broadcasts", t.iq_broadcasts);
    ("iq_selects", t.iq_selects);
    ("iq_scan_entries", t.iq_scan_entries);
    ("iq_wakeups_suppressed", t.iq_wakeups_suppressed);
    ("int_rf_reads", t.int_rf_reads);
    ("int_rf_writes", t.int_rf_writes);
    ("int_rf_banks_on_sum", t.int_rf_banks_on_sum);
    ("int_rf_live_sum", t.int_rf_live_sum);
    ("fp_rf_reads", t.fp_rf_reads);
    ("fp_rf_writes", t.fp_rf_writes);
    ("fp_rf_banks_on_sum", t.fp_rf_banks_on_sum);
    ("fetched", t.fetched);
    ("branches", t.branches);
    ("mispredicts", t.mispredicts);
    ("btb_bubbles", t.btb_bubbles);
    ("il1_misses", t.il1_misses);
    ("dl1_misses", t.dl1_misses);
    ("l2_misses", t.l2_misses);
    ("loads", t.loads);
    ("stores", t.stores);
    ("store_forwards", t.store_forwards);
    ("wp_fetched", t.wp_fetched);
    ("wp_dispatched", t.wp_dispatched);
    ("wp_issued", t.wp_issued);
    ("squashes", t.squashes);
    ("squashed", t.squashed);
    ("itlb_misses", t.itlb_misses);
    ("dtlb_misses", t.dtlb_misses);
    ("dispatch_stall_policy", t.dispatch_stall_policy);
    ("dispatch_stall_iq_full", t.dispatch_stall_iq_full);
    ("dispatch_stall_rob_full", t.dispatch_stall_rob_full);
    ("dispatch_stall_no_reg", t.dispatch_stall_no_reg);
    ("dispatch_stall_lsq_full", t.dispatch_stall_lsq_full);
  ]

let equal a b = to_fields a = to_fields b

let ipc t =
  if t.cycles = 0 then 0. else float_of_int t.committed /. float_of_int t.cycles

let avg_iq_occupancy t =
  if t.cycles = 0 then 0.
  else float_of_int t.iq_occupancy_sum /. float_of_int t.cycles

let avg_iq_banks_on t =
  if t.cycles = 0 then 0.
  else float_of_int t.iq_banks_on_sum /. float_of_int t.cycles

let avg_int_rf_banks_on t =
  if t.cycles = 0 then 0.
  else float_of_int t.int_rf_banks_on_sum /. float_of_int t.cycles

let avg_int_rf_live t =
  if t.cycles = 0 then 0.
  else float_of_int t.int_rf_live_sum /. float_of_int t.cycles

let mispredict_rate t =
  if t.branches = 0 then 0.
  else float_of_int t.mispredicts /. float_of_int t.branches

let pp ppf t =
  Fmt.pf ppf
    "cycles %d, committed %d, IPC %.3f@ IQ: occ %.1f, banks-on %.2f, \
     wakeups %d (naive %d)@ RF(int): reads %d writes %d banks-on %.2f@ \
     branches %d (mispred %.1f%%), DL1 miss %d, L2 miss %d"
    t.cycles t.committed (ipc t) (avg_iq_occupancy t) (avg_iq_banks_on t)
    t.iq_wakeups_gated t.iq_wakeups_naive t.int_rf_reads t.int_rf_writes
    (avg_int_rf_banks_on t) t.branches
    (100. *. mispredict_rate t)
    t.dl1_misses t.l2_misses
