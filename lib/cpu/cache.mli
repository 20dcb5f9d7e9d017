(** Set-associative cache with LRU replacement and in-flight line
    tracking: a missing line is installed immediately but its data only
    "arrives" at the fill time the caller records, so later accesses to a
    still-in-flight line see [Inflight] rather than a free hit (an
    MSHR-style merge — without it, dependent pointer chases would ride
    their own line fills). *)

type t

type outcome =
  | Hit
  | Inflight of int (** remaining cycles until the fill completes *)
  | Miss

val create : sets:int -> ways:int -> line:int -> t
val hits : t -> int
val misses : t -> int

(** Tag-match the line at byte address [addr]; a miss installs it with
    fill time [now] (push it out with {!set_fill}). *)
val probe : t -> now:int -> int -> outcome

(** Record when the just-missed line's data will arrive. *)
val set_fill : t -> int -> int -> unit

(** Untimed access: true on a settled hit; misses install instantly. *)
val access : t -> int -> bool

(** The (line tag, LRU stamp) of every way, set-major; tag [-1] when
    the way is empty. *)
val contents : t -> (int * int) array
