(** Lint waivers: acknowledged findings suppressed by an audit trail.

    A waiver file is line-oriented; blank lines and [#] comments are
    ignored. Each entry is

    {v <pass> <proc> <addr> <reason...> v}

    where [pass] names the finding's pass (exactly as printed, e.g.
    [improved/soundness]), [proc] is the procedure name or [*], [addr]
    is the anchor address or [*], and the rest of the line is the
    mandatory human reason. A waiver suppresses matching [Error] and
    [Warning] findings ([Info] findings are facts, not complaints);
    waivers that match nothing are reported so stale entries cannot
    linger. *)

type t = {
  pass : string;
  proc : string option;  (** [None] = any procedure *)
  addr : int option;     (** [None] = any address *)
  reason : string;
  line : int;            (** 1-based line in the waiver file *)
}

(** Parse waiver-file content. [Error] carries a message naming the
    offending line. *)
val parse : string -> (t list, string) result

(** Read and parse a waiver file. *)
val load : string -> (t list, string) result

val matches : t -> Finding.t -> bool
