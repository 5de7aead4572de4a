(** Model registry: compiled batch-bucket plan variants, ready to serve.

    Loading a model compiles it once per batch bucket (1, 2, 4, 8, ...)
    with the chosen engine. Bucket compiles go through the engine's normal
    pipeline and therefore through the process-global schedule cache, so
    kernels whose workload signature is batch-invariant (e.g. the per-row
    softmax/layernorm of a fixed sequence length, or repeated shapes
    across buckets and re-loads) tune once; the per-variant
    [Engine.result] records how much tuning was fresh vs served from the
    cache. Every loaded plan is {!Hidet_runtime.Plan.prepare}d — constants
    forced eagerly — so executor domains share it without touching the
    constant lock. *)

type source =
  | Zoo of string
      (** a paper-zoo name ([Models.by_name], batch-parameterized builder)
          or a tiny test model ([Models.tiny_all], rebatched via
          {!Hidet_graph.Passes.rebatch}) *)
  | File of string  (** an HGF graph file; rebatched via [Passes.rebatch] *)
  | Graph of Hidet_graph.Graph.t  (** an in-memory batch-variant-1 graph *)

type variant = {
  bucket : int;
  graph : Hidet_graph.Graph.t;
  plan : Hidet_runtime.Plan.t;
  latency : float;  (** predicted service time of a full batch, seconds *)
  result : Hidet_runtime.Engine.result;
  shard : Hidet_shard.Shard.t option;
      (** the bucket's shard plan when the model was loaded onto a
          cluster and the strategy partitions this bucket *)
}

type model = {
  name : string;
  engine : string;
  input_shapes : int list list;  (** batch-1 input shapes, in input order *)
  variants : variant list;  (** ascending bucket; always includes bucket 1 *)
  max_inflight : int;  (** concurrency limit: batches in flight at once *)
  sharding : string option;
      (** [Shard.describe] of the first sharded variant, for logs *)
  backend : Hidet_sched.Compiled.backend;
      (** simulator backend every execution of this model runs on *)
}

val load :
  ?max_inflight:int ->
  ?cluster:Hidet_gpu.Cluster.t ->
  ?parallel:Hidet_shard.Shard.strategy ->
  ?backend:Hidet_sched.Compiled.backend ->
  ?options:Hidet.Hidet_engine.options ->
  engine:(module Hidet_runtime.Engine.S) ->
  device:Hidet_gpu.Device.t ->
  buckets:int list ->
  source ->
  model
(** Compile every bucket variant (bucket 1 is added if missing — it is the
    checker's reference and the no-batching fallback) and prepare the
    plans. [max_inflight] defaults to unlimited; [?backend] (default
    [`Closure]) is stored in the model for the pool's executions.

    With [?cluster], buckets are loaded as shard groups instead: each
    bucket gets a {!Hidet_shard.Shard.t} under [?parallel] (default
    [Data]) whose per-device fragments the pool dispatches, and whose
    cost-model total (compute + collectives) becomes the bucket's
    service latency. Buckets the strategy cannot partition (e.g. bucket
    1 on a multi-device data-parallel cluster) fall back to an unsharded
    plan compiled under the same deterministic-reduction options, so
    responses still bit-match across buckets. Shard groups compile with
    [?options] (default {!Hidet_shard.Shard.default_options}); [device]
    is ignored when [?cluster] is given.

    Raises [Invalid_argument] on an unknown zoo name, a multi-output
    graph (per-request demux slices the single output's leading dim), or
    an engine that produces no executable plan; [Failure] on an
    unreadable HGF file. *)

val variant_exn : model -> int -> variant
(** The variant compiled for exactly this bucket; [Invalid_argument] if
    the bucket was not loaded. *)

val latency : model -> int -> float
(** [latency m bucket] = [(variant_exn m bucket).latency] — the service
    time the virtual-time serving loop charges per batch. *)
