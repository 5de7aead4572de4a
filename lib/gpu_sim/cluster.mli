(** An N-device cluster: a set of simulated devices joined by a symmetric
    interconnect, plus NCCL-ring-style cost formulas for the collectives
    the shard runtime issues (all-reduce, all-gather, point-to-point).

    The cost model is the standard latency–bandwidth (alpha–beta) form: a
    ring collective over [n] devices moves its payload in [n - 1] (or
    [2(n - 1)] for all-reduce) chunked steps, each paying the link latency
    once and streaming [bytes / n] through the per-direction link
    bandwidth. Single-device clusters pay nothing for any collective. *)

type link = {
  latency : float;  (** per-message hop latency, seconds *)
  bandwidth : float;  (** per-direction link bandwidth, bytes/second *)
}

type t = {
  name : string;
  devices : Device.t array;
  link : link;
}

val nvlink : link
(** NVLink-class interconnect: 1.5 us hop latency, 300 GB/s/direction. *)

val homogeneous : ?name:string -> ?link:link -> n:int -> Device.t -> t
(** [n] identical devices behind the same link. Raises [Invalid_argument]
    when [n < 1]. *)

val of_devices : ?name:string -> ?link:link -> Device.t list -> t
(** A (possibly heterogeneous) cluster from an explicit device list.
    Raises [Invalid_argument] on an empty list. *)

val size : t -> int
val device : t -> int -> Device.t

(** {2 Collective cost model}

    All take the {e total} payload in bytes (the full tensor being
    reduced or gathered, not the per-device shard) and return seconds. *)

val p2p_time : t -> bytes:float -> float
(** One device sends [bytes] to another: [latency + bytes / bandwidth]. *)

val all_reduce_time : t -> bytes:float -> float
(** Ring all-reduce (reduce-scatter + all-gather):
    [2 (n-1) latency + 2 (n-1)/n * bytes / bandwidth]. *)

val all_gather_time : t -> bytes:float -> float
(** Ring all-gather of a [bytes]-sized result sharded [1/n] per device:
    [(n-1) latency + (n-1)/n * bytes / bandwidth]. *)
