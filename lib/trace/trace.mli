(** Materialized uop traces.

    A trace is the unit fed to the simulator: a named, finite sequence of
    dynamic uops with concrete values (the ground truth produced by
    {!Generator}).

    Storage is one packed structure-of-arrays ({!Hc_isa.Uop_soa.t}); the
    simulator, the steering layer, the static analyses, the trace
    statistics and the codec all read its columns by trace index, and
    the generator, the codec and the text loader write them directly. No
    record view is kept: {!uops} builds one afresh for the edges that
    still need records (the linter's per-uop checks, tests). *)

type t = private {
  name : string;
  profile : Profile.t;  (** the profile the trace was generated from *)
  soa : Hc_isa.Uop_soa.t;
}

val of_soa : name:string -> profile:Profile.t -> Hc_isa.Uop_soa.t -> t
(** Build from packed columns: the generator, the codec and the text
    loader all fill a {!Hc_isa.Uop_soa.builder} and wrap its result. *)

val soa : t -> Hc_isa.Uop_soa.t

val uops : t -> Hc_isa.Uop.t array
(** A fresh record array of the whole trace, built on every call — a
    converter for the record-based edges, not a cached view. *)

val length : t -> int

val sub : t -> pos:int -> len:int -> t
(** Contiguous sub-trace (uop ids are preserved, not renumbered). *)

val narrow_result_fraction : t -> float
(** Fraction of destination-producing uops whose ground-truth result is
    narrow — the headline statistic behind Fig 1. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line description: name, length, mix digest. *)
