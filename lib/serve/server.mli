(** The serving loop: admission, dynamic batching, shedding — in virtual time.

    The control plane is a deterministic discrete-event simulation. Every
    decision input is virtual: arrivals come from the load generator's
    seeded streams, and a batch's service time is its plan variant's
    analytic latency ({!Registry.latency}) times [service_scale]. No wall
    clock is read anywhere, so the same seed and config always produce the
    same batch compositions, shed sets and timings — on any machine, at
    any level of real execution noise ({!simulate} is pure).

    The data plane then really executes the decided batches on the
    simulated GPU ({!Pool.execute}) and optionally verifies every response
    bit-for-bit against the bucket-1 plan ({!Pool.check}). [run] glues the
    two together. *)

type config = {
  batcher : Batcher.config;
  workers : int;  (** virtual executor slots; batches run one per slot *)
  max_inflight : int;  (** per-model concurrency limit (<= [workers] bites) *)
  service_scale : float;
      (** multiplies analytic plan latency into virtual service time. The
          analytic latencies of the tiny test models are microseconds; a
          scale of [1e3]-[1e5] turns realistic request rates into actual
          queueing pressure without needing millions of requests. *)
}

val validate : config -> unit

type outcome =
  | Completed of {
      bid : int;
      dispatch : float;
      completion : float;
      bucket : int;
    }
  | Shed of float
      (** dropped by deadline-based shedding at this virtual time: it
          could no longer finish before its deadline, so the server
          refuses to waste a batch slot on it *)
  | Rejected of float
      (** refused at arrival: the bounded queue was full (backpressure) *)

type record = { req : Loadgen.request; outcome : outcome }

type schedule = {
  records : record list;  (** every generated request, in rid order *)
  batches : Pool.batch list;  (** in dispatch order; bids are dense *)
  makespan : float;  (** virtual time the last batch completed *)
}

val simulate : config -> latency:(int -> float) -> Loadgen.t -> schedule
(** Pure virtual-time run: [latency bucket] is the service time of a full
    batch on that bucket's variant (before [service_scale]). Also bumps
    the [serve.*] metrics (requests, rejected, shed, completed,
    deadline_miss, batches, padded_rows; queue-wait / e2e / assembly /
    execute / batch-size / padding-fraction histograms) — callers that
    need isolated readings should [Metrics.reset] first.

    When an {!Hidet_obs.Events} sink is attached, every request emits
    its lifecycle events ([admitted]/[rejected]/[shed]/[batched]/
    [dispatched]/[completed]) stamped with virtual time, and the first
    deadline miss trips the flight recorder. When tracing is on, each
    decision records a span ([serve.admit] / [serve.dispatch] /
    [serve.complete] / [serve.shed] / [serve.reject]) carrying flow
    points — a request rid's arc has flow id [2 * rid], a batch bid's
    arc [2 * bid + 1] — which Perfetto renders as connected arrows from
    the control plane into the worker-domain spans of {!Pool}. *)

type stats = {
  offered : int;
  admitted : int;  (** offered - rejected *)
  completed : int;
  shed : int;
  rejected : int;
  deadline_miss : int;  (** completed, but after the deadline *)
  batches : int;
  padded_rows : int;
  mean_batch : float;  (** members per batch *)
  padding_frac : float;  (** padded rows / total bucket rows *)
  makespan : float;
  throughput : float;  (** completed / makespan, requests per virtual s *)
  wait_p50 : float;  (** queue wait = dispatch - arrival, virtual s *)
  wait_p95 : float;
  wait_p99 : float;
  e2e_mean : float;  (** completion - arrival, virtual s *)
  e2e_p50 : float;
  e2e_p95 : float;
  e2e_p99 : float;
}

val stats : schedule -> stats
(** Exact (sorted, nearest-rank) percentiles over completed requests —
    independent of the bucketed [serve.*] histograms. *)

val slo_samples : schedule -> Slo.sample list
(** One sample per request at the virtual time its fate was decided:
    completed within deadline is good; late, shed or rejected burns the
    error budget. *)

val slo_verdict : ?config:Slo.config -> duration:float -> schedule -> Slo.verdict
(** Burn-rate evaluation of the schedule ({!Slo.evaluate} over
    {!slo_samples}); [config] defaults to [Slo.default ~duration]. *)

type report = {
  schedule : schedule;
  summary : stats;
  responses : (int * Hidet_tensor.Tensor.t) list;
  mismatches : int option;  (** [None] when checking was off *)
  slo : Slo.verdict;
}

val run :
  ?exec:bool ->
  ?check:bool ->
  ?exec_workers:int ->
  ?slo_config:Slo.config ->
  config ->
  Registry.model ->
  Loadgen.t ->
  report
(** [simulate] with the model's variant latencies, then really execute the
    dispatched batches ([exec], default true) and verify every response
    against the bucket-1 plan ([check], default true). [exec_workers]
    controls the real executor domains (default
    [Parallel.default_workers]); it affects wall time only, never the
    schedule. The report carries the burn-rate verdict for the run
    ([slo_config] defaults to [Slo.default] over the load's duration). *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable SLO report: traffic, admission, batching, latency
    percentiles, verification verdict. *)

val stats_to_json : stats -> Hidet_obs.Json.t
(** One flat JSON object (used by [hidetc serve --out] and the bench);
    numbers keep 9 significant digits. *)
