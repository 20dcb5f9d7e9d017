(** The static region map attribution runs against: one region per
    compiler annotation (the paper's per-DAG-block / per-loop-header
    [Iqset] sites, Sections 3-4), plus a region per library procedure
    (opaque to the analysis), a preamble region for any unannotated
    procedure prefix, and a synthetic startup region for events before
    the first commit.

    The map lives in the address space of the binary the machine
    actually executes: for NOOP delivery the emitted addresses are
    recovered from the annotated binary itself via
    {!Sdiq_analysis.Lint.noop_address_map} (the same reconstruction
    the delivery lints audit with), for tag delivery and for
    unannotated binaries the addresses are unchanged. A committed
    instruction's [pc] therefore always resolves via {!of_addr}. *)

(** How annotations reach (or don't reach) the running binary —
    mirrors the harness's five techniques without depending on it:
    [Plain] covers both [Baseline] and [Abella] (unmodified binary;
    regions are still the analysis's regions, so attribution under the
    non-resizing configurations uses the same decomposition). *)
type delivery =
  | Plain
  | Noop
  | Tagged of { improved : bool }
  | Tightened  (** tag delivery of the {!Sdiq_analysis.Tighten} windows *)

type kind =
  | Startup  (** synthetic: events before the first commit *)
  | Preamble  (** unannotated prefix of a procedure *)
  | Library  (** a library procedure, opaque to the analysis *)
  | Block  (** a DAG-block or re-entry annotation *)
  | Loop  (** a loop-header annotation (has a [loop_span]) *)

type info = {
  id : int;
  proc : string;
  kind : kind;
  start : int;  (** first address in the running binary; -1 for Startup *)
  orig_start : int;  (** address in the original binary; -1 if none *)
  granted : int option;  (** the annotation's [Iqset] window, if any *)
}

type t

(** Analyse [original], apply [delivery], and index the result. The
    running binary built here is exactly what
    [Sdiq_harness.Technique.prepare] builds for the matching
    technique (both call the same deterministic rewriter). *)
val build : delivery -> Sdiq_isa.Prog.t -> t

val delivery : t -> delivery

(** The binary the map's addresses refer to — load this one. *)
val running_prog : t -> Sdiq_isa.Prog.t

(** Number of regions, Startup included. *)
val count : t -> int

val info : t -> int -> info
val infos : t -> info array

(** Region owning a running-binary address; raises [Invalid_argument]
    outside [0, length). *)
val of_addr : t -> int -> int

val kind_name : kind -> string
val delivery_name : delivery -> string
