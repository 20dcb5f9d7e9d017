(** Paged int-keyed int map (the oracle's data memory).

    Word-aligned keys ([k land 3 = 0]) live in dense 1024-word pages
    found through a page directory with a cached most-recently-used
    page; any other key (negative, unaligned, [min_int] — the map is
    total over ints) goes to a small open-addressing residue table.
    Presence is tracked per cell. Lookups never allocate; there is no
    single-key deletion, and {!clear} costs O(bindings) and keeps the
    allocated pages, so a warm map clears and refills without
    allocating. *)

type t

(** [create n]: an empty map expecting about [n] bindings. *)
val create : int -> t

(** The value bound to [k], or [default] when absent. *)
val find : t -> int -> default:int -> int

(** Bind [k] to [v], replacing any previous binding. *)
val replace : t -> int -> int -> unit

(** Whether [k] is bound. *)
val mem : t -> int -> bool

(** Remove every binding, keeping the allocated storage. *)
val clear : t -> unit

(** Number of bindings. *)
val count : t -> int

(** Iterate over bindings, in unspecified order. *)
val iter : (int -> int -> unit) -> t -> unit
