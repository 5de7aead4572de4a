(** Minimal JSON support: the one writer and the one parser.

    No JSON library is among the repository's allowed dependencies. Every
    JSON document the system writes — Chrome traces, lifecycle event logs,
    flight-recorder dumps, [hidetc serve --out] and the bench reports — is
    built as a {!t} and printed by {!to_string}; the [trace-check] tooling
    and tests read it back with {!parse}, a strict, self-contained
    recursive-descent parser (objects, arrays, strings with escapes,
    numbers, booleans, null). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Compact ([{"a":1,"b":[]}], never a newline, so one value per JSONL
    line), or with [~indent:n] one member per line, [n] spaces per level
    and ["key": value]. Strings go through {!escape}, other bytes as they
    are; finite numbers print as {!shortest}, nan as [null] and
    +-infinity as [+-1e999] (which {!parse} reads back as +-infinity). *)

val shortest : float -> string
(** The shortest [%.15g]/[%.16g]/[%.17g] text that reads back as the
    same finite double; integers below 1e15 print as integers. *)

val round_sig : int -> float -> float
(** [round_sig d x]: the double nearest [x] written with [d] significant
    digits, which {!to_string} then prints with at most [d] digits. *)

val escape : string -> string
(** JSON string-literal escaping of [s] (without the surrounding quotes):
    backslash, quote, and all control characters below 0x20. *)

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. The error
    string includes the offending byte offset. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing fields or non-objects. *)

val to_num : t -> float option
val to_str : t -> string option
val to_arr : t -> t list option
