(** Region decomposition of a procedure (Section 4.1): natural loops plus
    DAGs of the remaining blocks, where a DAG starts at the procedure's
    first block or at a block immediately following a call. Every block
    belongs to exactly one region. *)

type region =
  | Dag of int list  (** block ids in forward order *)
  | Loop of Loops.t

type t = {
  cfg : Cfg.t;
  regions : region list; (** in program order of their first block *)
}

val decompose : Cfg.t -> t

(** Blocks of a region in forward order; for a loop region, its [own]
    blocks only (nested loops are their own regions). *)
val blocks : t -> region -> int list
