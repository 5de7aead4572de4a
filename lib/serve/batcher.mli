(** Dynamic batching policy: pure sizing decisions, no clocks, no queues.

    The server owns the request queue and the (virtual) clock; the batcher
    answers exactly one question — given what is waiting, dispatch a batch
    now or keep waiting — from explicit arguments only. No wall-clock, no
    hidden state: the policy is unit-testable and the serving loop built on
    it is deterministic by construction. *)

type config = {
  buckets : int list;
      (** feasible batch sizes (compiled plan variants), strictly
          increasing, starting at 1 *)
  max_wait : float;
      (** longest a request may wait (seconds) for co-batching before the
          queue is flushed as a partial batch *)
  queue_cap : int;  (** admission bound: arrivals beyond this are rejected *)
  batching : bool;
      (** [false]: always dispatch singletons (the batch-1 ablation the
          [serve] bench compares against) *)
}

val validate : config -> unit
(** Raises [Invalid_argument] unless [buckets] is strictly increasing and
    starts at 1, [max_wait >= 0] and [queue_cap >= 1]. *)

val bucket_for : config -> int -> int
(** Smallest bucket that fits [n] requests ([n] clamped between 1 and the
    largest bucket); the gap is padded by the executor. *)

type decision =
  | Dispatch of int  (** pop this many requests from the queue head now *)
  | Wait_until of float
      (** nothing to dispatch before this time (the oldest request's
          co-batching window closes then) *)
  | Wait_event  (** nothing to do until an arrival or a worker frees *)

val decision_to_string : decision -> string
(** Compact form for trace attributes and logs: [dispatch:4],
    [wait_until:1.25], [wait_event]. *)

val decide :
  config ->
  now:float ->
  queue_len:int ->
  oldest_arrival:float ->
  draining:bool ->
  decision
(** Policy, assuming the caller has an idle worker and has already shed
    expired requests: dispatch as soon as the largest bucket can be
    filled; dispatch a partial batch when the oldest request has waited
    [max_wait], or when [draining] (no future arrival can top the batch
    up); otherwise wait. [oldest_arrival] is meaningless when
    [queue_len = 0] (the answer is [Wait_event]). *)
