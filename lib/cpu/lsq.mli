(** Load/store queue: program-ordered ring with speculative allocation
    at dispatch, age-ordered store-to-load forwarding, head reclaim at
    commit and tail reclaim at squash (arXiv 2311.08198 discipline). *)

type t

val create : size:int -> t
val is_full : t -> bool
val count : t -> int
val is_store : t -> int -> bool
val is_wp : t -> int -> bool

(** Allocate the tail slot for a load or store; returns the slot. *)
val push : t -> rob_idx:int -> addr:int -> is_store:bool -> wp:bool -> int

(** [youngest_older_store t slot a] — ROB index of the youngest store
    older than the entry at [slot] with address [a]; -1 when none. *)
val youngest_older_store : t -> int -> int -> int

(** Reclaim the head at commit; [rob_idx] must own the head entry. *)
val pop_head : t -> rob_idx:int -> unit

(** Reclaim the tail at squash; [rob_idx] must own the tail entry. *)
val pop_tail : t -> rob_idx:int -> unit

(** Iterate live entries oldest to youngest: [f slot rob_idx]. *)
val iter_oldest_first : t -> (int -> int -> unit) -> unit
