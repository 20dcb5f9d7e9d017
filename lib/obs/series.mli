(** Windowed time series: one integer cell per [window] cycles.

    [observe t ~cycle v] adds [v] to cell [cycle / window]; the
    backing array grows geometrically, so a long run costs amortised
    O(1) per observation and no per-cycle allocation. Totals are exact
    ([total] is the plain sum of every observation).

    Series with the same window merge cell-wise ({!merge}); merging is
    associative and commutative, so per-shard series combine into a
    campaign series independently of shard order. *)

type t

(** Raises [Invalid_argument] on a non-positive window. *)
val create : window:int -> t

val window : t -> int

(** Raises [Invalid_argument] on a negative cycle. *)
val observe : t -> cycle:int -> int -> unit

(** Number of cells in use (index of the last written cell + 1). *)
val length : t -> int

(** Value of cell [i]; 0 for cells beyond {!length}. *)
val get : t -> int -> int

(** Exact sum of every observation. *)
val total : t -> int

(** The used cells, in order (a copy). *)
val values : t -> int array

(** Pure cell-wise merge; raises [Invalid_argument] when windows
    differ. *)
val merge : t -> t -> t

val equal : t -> t -> bool

(** Canonical byte-comparable rendering. *)
val to_string : t -> string

val to_json : t -> string
