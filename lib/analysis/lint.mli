(** Trace and configuration verifier behind [bin/hc_lint].

    Each finding carries a stable code, a severity and a [file:uop-id]
    location. Codes:

    - [E101] uop ids not dense
    - [E103] def-use mismatch (register read differs from its last
      in-window writer's result)
    - [E104] flag producer/consumer pairing broken (structure or value)
    - [E105] [ul1_miss] without [dl0_miss]
    - [E106] pure-ALU result inconsistent with [Semantics.eval]
    - [E107] memory address is not base + offset
    - [E108] binary trace artifact corrupt (truncated, CRC mismatch, or
      structurally invalid — see {!Hc_trace.Codec})
    - [E110] static-analysis soundness violation (provably-narrow uop
      with wide ground truth)
    - [E111] live-bits soundness violation (a provably-dead bit whose
      mutation is observable downstream)
    - [W201] realized instruction mix drifts from the generating profile
    - [E201] configuration fails [Config.validate]
    - [W202] steering scheme is inert (rules on, helper cluster off)
    - [W203] bidirectional provable bound below the forward bound
      (monotonicity breach)

    The user-facing strings for every code — severity, one-line summary,
    detail paragraph, example — live in the {!catalogue}; [hc_lint
    explain] and the README's lint table are both generated from it.

    Reads of registers with no in-window writer are accepted: sliced
    traces begin mid-program. Findings of one code are capped at a few
    reports plus an [Info] overflow summary. *)

type severity = Error | Warning | Info

type diagnostic = {
  code : string;
  severity : severity;
  loc : string;
  message : string;
}

val severity_to_string : severity -> string

val to_string : diagnostic -> string
(** ["error[E105] gcc.trace:uop-42: ..."] *)

val pp : Format.formatter -> diagnostic -> unit

val has_errors : diagnostic list -> bool
(** [true] when any finding has [Error] severity — the lint gate's exit
    criterion. *)

val count : severity -> diagnostic list -> int

type info = {
  i_code : string;
  i_severity : severity;
  i_summary : string;  (** one line; the README table cell *)
  i_detail : string;  (** one paragraph for [hc_lint explain] *)
  i_example : string;  (** a representative diagnostic line *)
}

val catalogue : info list
(** Every diagnostic code the linter can emit, in code order — the
    single source for [hc_lint explain] and the README lint table. *)

val explain : string -> info option
(** Catalogue lookup; case-insensitive, whitespace-trimmed. *)

val readme_table : unit -> string
(** The README's markdown lint table, generated from {!catalogue}. *)

val check_analysis :
  ?file:string -> Static.bidir -> Hc_trace.Trace.t -> diagnostic list
(** The analysis soundness gates alone — E110 (forward), E111
    (live-bits) and W203 (monotonicity) — over a caller-supplied
    bidirectional record. [check_trace] runs these on a freshly computed
    record; this entry point exists so regression tests can seed
    deliberately corrupt verdicts and pin that the gates trip. *)

val check_trace :
  ?file:string ->
  ?expected_profile:Hc_trace.Profile.t ->
  ?bits:int ->
  Hc_trace.Trace.t ->
  diagnostic list
(** All trace checks, in trace order. [expected_profile] additionally
    compares the realized instruction mix against the profile that
    allegedly generated the trace (W201); leave it out for traces of
    unknown provenance. [bits] is the narrowness threshold for the
    E110/E111/W203 soundness gates (default 8), which run over a fresh
    {!Static.analyze_bidir} record. *)

val check_config : ?file:string -> Hc_sim.Config.t -> diagnostic list

val corrupt_artifact : file:string -> string -> diagnostic
(** The E108 finding for a binary trace file that failed to decode
    ({!Hc_trace.Codec.Corrupt}): truncated stream, CRC mismatch, or a
    structurally invalid payload. Built by the caller because decode
    failures surface as exceptions before any [Trace.t] exists to
    check. *)
