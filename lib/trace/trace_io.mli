(** Trace serialization.

    A plain-text, line-oriented format so traces can be saved, diffed,
    versioned, and — most importantly — {e brought from outside}: anyone
    with real IA-32 uop traces can convert them to this format and run the
    full evaluation on them instead of the synthetic workloads.

    Format: a header line [helper-cluster-trace v1 <name> <count>]
    followed by one uop per line:

    {v
    <id> <pc> <op> dst=<reg|-> srcs=<operand:value,...> res=<value>
         addr=<value> taken=<0|1> misp=<0|1> dl0=<0|1> ul1=<0|1>
    v}

    where an operand is [r:<regname>] or [i] (immediate — its value is in
    the value slot). All values are hexadecimal.

    There is also a compact binary format ({!Codec}) for the artifact
    cache and bulk storage; {!load} transparently reads both, dispatching
    on the first bytes of the file. *)

val save : Trace.t -> string -> unit
(** [save t path] writes the trace in the text format.
    @raise Sys_error on I/O failure. *)

val save_binary : Trace.t -> string -> unit
(** [save_binary t path] writes the {!Codec} binary format (≥5× smaller,
    ≥20× faster to reload); {!load} reads it back transparently. *)

val load : ?profile:Profile.t -> string -> Trace.t
(** [load path] parses a trace saved by {!save} or {!save_binary} (or
    produced by an external converter), dispatching on the magic bytes.
    The attached profile defaults to the first SPEC personality and only
    matters for regeneration metadata.
    @raise Failure on malformed text input, with a message that starts
    [line N:], the header being line 1.
    @raise Codec.Corrupt on truncated/CRC-bad binary input. *)

val roundtrip_equal : Trace.t -> Trace.t -> bool
(** Structural equality of the uop streams (names may differ). *)
