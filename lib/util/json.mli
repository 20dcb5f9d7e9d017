(** A minimal JSON value with a recursive-descent parser and canonical
    printer — just enough for the telemetry round-trips (ledger records,
    Chrome trace documents, MIPS probes) without an external dependency.

    Numbers are [float]s; [%.17g] printing keeps them round-trippable.
    The parser accepts any RFC 8259 document (objects preserve key
    order, duplicate keys keep both) and rejects trailing garbage. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result

(** Canonical compact rendering; [parse (to_string v)] returns [v]
    exactly ([%.17g] round-trips every finite float). JSON has no
    non-finite numbers: [Num nan] and [Num (+/-infinity)] render as
    [null], so they come back as [Null] and the output always parses. *)
val to_string : t -> string

(** First value bound to [key]; [None] when absent or not an object. *)
val member : string -> t -> t option

val to_float : t -> float option

(** [Some n] for an integral number in the [int] range; [None] for a
    fraction, a number outside that range, or a non-number. *)
val to_int : t -> int option

val to_str : t -> string option
val to_list : t -> t list option

(** JSON string-escape [s] (without the surrounding quotes). *)
val escape : string -> string
