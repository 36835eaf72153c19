(** Compact binary trace format.

    The interchange text format ({!Trace_io}) is human-greppable but
    costs a string parse per field; reloading a 30k-uop trace through it
    is slower than simulating it. This codec is the fast path the
    artifact cache stores: a little-endian varint stream that decodes
    with nothing but byte reads and table lookups.

    Layout (schema 1):

    - magic ["HCTB"] + 1 schema byte;
    - header: trace name, uop count, then the opcode and register {e name
      tables} — decoders map table indices back through the names, so a
      reordering of the [Opcode.t]/[Reg.t] enums cannot silently corrupt
      old files;
    - per uop: zigzag-varint delta-coded id and pc (dense ids and looping
      pcs encode in one byte each), opcode/register table indices, one
      packed flag byte (taken/mispredict/dl0/ul1), varint operand values
      and result, and the memory address delta-coded against base+offset
      of the first two source values (one byte for every well-formed
      memory uop, see lint E107);
    - trailer: CRC-32 of header+body, little-endian.

    Every structural defect — short file, flipped bit, unknown table
    name, bad magic — raises {!Corrupt} with a description; nothing is
    ever silently mis-decoded past the CRC. *)

exception Corrupt of string
(** Raised by {!decode}/{!load} on any malformed input. *)

val schema_version : int
(** Bumped on any layout change; part of the artifact-cache key, so stale
    cache entries from older schemas are never even looked at. *)

val magic : string
(** The 4-byte file prefix, ["HCTB"]. *)

val is_binary : string -> bool
(** [is_binary s] says whether the buffer (or its prefix) starts with
    {!magic} — the dispatch test {!Trace_io.load} uses. *)

val encode : Trace.t -> string
(** Serialize; the profile is {e not} stored (same contract as the text
    format — supply it again at {!decode} time). *)

val decode : ?profile:Profile.t -> string -> Trace.t
(** Decode a full encoded buffer. [profile] defaults like
    {!Trace_io.load}. @raise Corrupt on malformed input. *)

val save : Trace.t -> string -> unit
(** Write [encode] output to a file (binary mode). *)

val load : ?profile:Profile.t -> string -> Trace.t
(** Read and {!decode} a file. @raise Corrupt on malformed content. *)

val crc32 : string -> pos:int -> len:int -> int
(** The trailer checksum (IEEE 802.3 polynomial, slicing-by-8; [encode]
    and [decode] share its table), exposed for tests. *)

(** {2 Name tables}

    One [Hashtbl] per namespace, built once — shared by the binary
    header decoder and the text parser, which previously paid an [O(n)]
    [List.assoc] per token. *)

val reg_of_name : string -> Hc_isa.Reg.t option
val op_of_name : string -> Hc_isa.Opcode.t option
