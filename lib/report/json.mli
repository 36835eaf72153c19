(** Dependency-free RFC 8259 JSON reader for run artifacts.

    A strict parser (one value, nothing after it) that builds a tree;
    [hc_report validate] is the smoke tests' well-formedness check on
    top of it.

    Lexemes are kept raw: a {!Number} holds the exact source spelling
    ("1.150", "0", "-3e2") and a {!String} holds the bytes between the
    quotes with escapes intact. Because every artifact writer in this
    repo emits minified single-line JSON ([Hc_sim.Metrics.to_json],
    [meta.json]), [to_string (parse_exn s) = s] bit-for-bit for those
    files — which is what lets [hc_report] prove it read a file without
    losing information. *)

type t =
  | Null
  | Bool of bool
  | Number of string  (** raw lexeme, e.g. ["1.150"] *)
  | String of string  (** raw bytes between the quotes, escapes intact *)
  | Array of t list
  | Object of (string * t) list
      (** members in source order; keys raw like {!String} *)

val parse : string -> (t, int) result
(** Strict parse of exactly one JSON value (leading/trailing whitespace
    allowed, nothing else). [Error at] is the byte offset of the first
    offence, matching the smoke checker's report. *)

val parse_exn : string -> t
(** @raise Failure with the byte offset on malformed input. *)

val of_file : string -> (t, string) result
(** Read and parse a file; the error string names the file and offset
    (or the I/O failure). *)

val to_string : t -> string
(** Minified serializer: no whitespace, raw lexemes emitted verbatim.
    Inverse of {!parse} up to insignificant whitespace; exact inverse on
    the minified artifacts this repo writes. *)

val member : string -> t -> t option
(** First object member with that (raw) key. [None] on non-objects. *)

val find_path : string list -> t -> t option
(** [find_path ["a"; "b"] j] = [member "b" (member "a" j)]. *)

val number : t -> float option
(** The numeric value of a {!Number} (via [float_of_string] on the raw
    lexeme); [None] for every other constructor. *)

val unescape : string -> string
(** Decode the escapes of a raw {!String} payload for display. Unicode
    escapes are emitted as UTF-8. *)

val string_value : t -> string option
(** Unescaped text of a {!String}. *)
