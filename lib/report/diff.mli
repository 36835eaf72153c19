(** Cross-run regression comparison.

    Both sides are flattened to numeric leaves ({!Loader.numeric_leaves})
    and compared key by key under per-metric relative tolerances. The
    simulator is deterministic, so the default tolerance is exactly 0 —
    a committed baseline acts as a bit-exact gate and any drift is a
    finding, not noise. Wall-clock and host-identity fields are ignored
    by a built-in rule table; cycle counts only regress when they grow
    and IPC only when it drops. *)

type direction =
  | Two_sided  (** any relative change beyond tolerance regresses *)
  | Higher_better  (** only a drop beyond tolerance regresses *)
  | Lower_better  (** only a rise beyond tolerance regresses *)
  | Ignored  (** machine/time identity: never compared *)

type status = Pass | Regress | Missing | New

type entry = {
  key : string;
  dir : direction;
  base : float option;
  cand : float option;
  rel : float;  (** (cand - base) / |base|; 0 when both sides are 0 *)
  tol : float;
  status : status;
}

type report = {
  entries : entry list;  (** source order of the baseline, new keys last *)
  compared : int;  (** entries actually held to a tolerance *)
  regressions : int;
  missing : int;
}

val classify : string -> direction
(** The built-in rule table, keyed on the dotted path. *)

val run :
  ?tols:(string * float) list ->
  ?default_tol:float ->
  base:Json.t ->
  cand:Json.t ->
  unit ->
  report
(** [tols] maps a key or key prefix to a relative tolerance (longest
    match wins); [default_tol] (default [0.]) covers the rest. *)

val exit_code : report -> int
(** 0 pass, 1 any regression, 2 no regression but baseline keys missing
    from the candidate. Regressions take priority over missing keys. *)

val pp_status : status -> string
