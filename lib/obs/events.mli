(** Request-lifecycle event log.

    Where {!Trace} answers "what was each domain doing when", the event
    log answers "what happened to request 17": every serve request
    carries a stable request id and emits a small fixed vocabulary of
    lifecycle events with virtual timestamps and the batch/bucket/worker
    that handled it. The log is a bounded, domain-safe ring exported as
    JSONL (one object per line) with a strict hand-rolled validator,
    mirroring {!Chrome_trace}. A {!Flight} recorder keeps a short ring
    of recent events and freezes it into a dump the first time something
    goes wrong. *)

type kind =
  | Admitted  (** entered the queue (attrs: client, deadline, queue depth) *)
  | Rejected  (** bounced at admission: queue full / overloaded *)
  | Shed  (** dropped before dispatch: deadline already hopeless *)
  | Batched  (** grouped into a batch (attrs: bid, bucket) *)
  | Dispatched  (** batch handed to a worker (attrs: bid, worker) *)
  | Executed  (** data plane really ran the batch row *)
  | Verified  (** response bit-checked against the batch-1 plan *)
  | Completed  (** virtual-time completion (attrs: bid, miss flag) *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type event = {
  t : float;  (** virtual seconds since serve start *)
  rid : int;
  kind : kind;
  attrs : (string * string) list;
}

(** {1 Bounded ring log} *)

type log

val create : ?capacity:int -> unit -> log
(** A fresh log keeping the most recent [capacity] (default 65536)
    events. Raises [Invalid_argument] on a non-positive capacity. *)

val emit : log -> event -> unit
val events : log -> event list
(** Retained events, oldest first (emission order). *)

val total : log -> int
(** Events emitted over the log's lifetime, including dropped ones. *)

val dropped : log -> int
(** Events evicted by the ring bound ([total - retained]). *)

val sort_events : event list -> event list
(** Deterministic order for export: by [(t, rid, kind rank)], where the
    rank follows control-plane-then-data-plane emission order. Worker
    domains emit [Executed]/[Verified] concurrently, so raw emission
    order is racy; sorting restores a stable, per-request-ordered log. *)

(** {1 JSONL} *)

val to_jsonl : event list -> string
(** One compact [{"t":..,"rid":..,"ev":"..","attrs":{..}}] object per
    line; [attrs] is omitted when empty. {!Json.to_string} prints [t] so
    that it reads back bit-exact. *)

val save_jsonl : string -> event list -> unit
(** Write through {!Atomic_file.write}. *)

val parse_jsonl : string -> (event list, string) result
(** Strict parse of a JSONL document (blank lines allowed). *)

val check : string -> (int * int, string) result
(** Parse and validate a JSONL event log: syntax plus per-request
    lifecycle rules (timestamps monotone per request; first event
    [Admitted] or [Rejected]; exactly one terminal event; [Rejected]
    sole; [Shed] preceded only by [Admitted]; [Completed] preceded by
    exactly one [Batched] and one [Dispatched], with
    [Executed]/[Verified] at most once each and only after
    [Dispatched]). [Ok (events, requests)] on success. *)

val check_file : string -> (int * int, string) result

(** {1 Flight recorder} *)

module Flight : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** A recorder retaining the most recent [capacity] (default 256)
      events. *)

  val record : t -> event -> unit
  val trigger : t -> reason:string -> rid:int -> t:float -> unit -> bool
  (** Freeze the ring into a JSON dump (the offending request's full
      retained timeline plus the surrounding context) and bump
      [obs.flight_dumps]. Only the first trigger captures; [true] iff
      this call was it. *)

  val fired : t -> bool
  val dump : t -> string option
  val save : t -> string -> bool
  (** Write the captured dump to [path] through {!Atomic_file.write};
      [false] when nothing fired. *)
end

(** {1 Process-global sink}

    Off by default: instrumented code pays one atomic load per event
    when nobody is listening. *)

val set_log : log option -> unit
val set_flight : Flight.t option -> unit
val enabled : unit -> bool
(** Whether any sink (log or flight recorder) is attached. *)

val record : event -> unit
(** Append to the attached log and flight recorder, if any. *)

val flight_trip : reason:string -> rid:int -> t:float -> unit -> bool
(** Trip the attached flight recorder. [true] on the first (and only)
    capture; [false] when none is attached or it already fired. *)

val with_log : log -> (unit -> 'a) -> 'a
(** Attach [log] for the duration of [f] (detached on return or
    raise). *)
