(** Reorder buffer: in-flight instructions committed in program order.
    The speculative frontend pushes wrong-path instructions (flagged
    [wp]) behind a mispredicted branch; resolution squashes them by
    popping the tail youngest-first, so the buffer only ever shrinks
    from its two ends: head at commit, tail at squash.

    Entries are stored flat (one unboxed array per attribute, DESIGN.md
    §13) and read through per-index accessors; a free slot's [dyn] is
    [dummy_dyn] (sequence number -1). *)

type state =
  | Dispatched
  | Issued
  | Completed

type dest =
  | No_dest
  | Int_dest of int
  | Fp_dest of int

(** Placeholder dynamic instruction held by free slots. *)
val dummy_dyn : Sdiq_isa.Exec.dyn

type t

val create : size:int -> t
val is_full : t -> bool
val is_empty : t -> bool
val occupancy : t -> int

(** {2 Per-entry accessors (valid for in-flight indices)} *)

val dyn : t -> int -> Sdiq_isa.Exec.dyn
val state : t -> int -> state
val set_state : t -> int -> state -> unit
val is_completed : t -> int -> bool

val dest_code : t -> int -> int
val old_code : t -> int -> int
val old_phys_of : t -> int -> dest

val iq_slot : t -> int -> int
val set_iq_slot : t -> int -> int -> unit
val lsq_slot : t -> int -> int
val set_lsq_slot : t -> int -> int -> unit
val blocked_fetch : t -> int -> bool
val set_blocked_fetch : t -> int -> bool -> unit

(** Was this entry fetched down the wrong path? *)
val is_wp : t -> int -> bool

(** Allocate the tail entry; returns its index. Raises when full.
    Destinations come packed into one int each (0 none, [2p+1] int
    register [p], [2p+2] fp register [p]) for the allocation-free hot
    path; {!old_phys_of} decodes the previous mapping. *)
val push_codes :
  t ->
  dyn:Sdiq_isa.Exec.dyn ->
  dest_code:int ->
  old_code:int ->
  iq_slot:int ->
  wp:bool ->
  int

(** Commit primitives: is the oldest entry completed / its index / drop
    it. [pop_head] assumes a non-empty buffer. *)
val head_is_completed : t -> bool

val head_index : t -> int
val pop_head : t -> unit

(** Squash primitives: index of the youngest in-flight entry, and its
    removal. Both assume a non-empty buffer. *)
val tail_index : t -> int

val pop_tail : t -> unit

(** Oldest to youngest, by entry index. *)
val iter_in_flight : t -> (int -> unit) -> unit
