(** Averages over finished result lists. *)

(** Arithmetic mean of a list, 0 for the empty list. *)
val mean_of : float list -> float
