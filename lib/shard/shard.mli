(** Multi-device sharded execution.

    A shard plan partitions a graph across the devices of a
    {!Hidet_gpu.Cluster}, compiles one plan fragment per device (through
    the normal Hidet engine, so every fragment is tuned against the
    per-device schedule cache), and orchestrates execution host-side:
    inputs are sliced, fragments run, and the collectives the real
    runtime would issue (all-gather, all-reduce, point-to-point) are
    performed as tensor ops and billed through the cluster's
    latency–bandwidth cost model.

    Equivalence contract: fragments and the single-device baseline are
    compiled with {!Hidet.Hidet_engine.options.deterministic_reduce}, so
    every strategy that preserves reduction extents — data parallelism,
    column-parallel tensor parallelism, pipeline microbatching — is
    {e bit-exact} against the baseline. Row-parallel tensor parallelism
    ([Tensor Reduce]) splits the contraction axis and regroups the k-sum
    into per-device partial sums, which legitimately reorders fp32
    addition; it is held to a documented ULP budget instead
    ({!ulp_budget}). *)

type tensor_mode =
  | Gather
      (** Column-parallel: the weight is sliced along its output (n)
          axis; each device computes a column slab and the slabs are
          all-gathered (concatenated on the last axis). Preserves each
          output element's reduction extent — bit-exact. *)
  | Reduce
      (** Row-parallel (split-k): the weight is sliced along its
          reduction (k) axis and the activation along its last axis;
          partial products are all-reduced (summed). Reorders the k-sum
          — ULP-bounded, not bit-exact. *)

type strategy =
  | Data  (** split the leading (batch) dimension across devices *)
  | Tensor of tensor_mode  (** split the dominant matmul *)
  | Pipeline of { microbatches : int }
      (** stage the graph across devices and stream microbatches *)

val strategy_to_string : strategy -> string

val bit_exact : strategy -> bool
(** Whether the strategy preserves reduction order (everything except
    [Tensor Reduce]). *)

(** One microbatch's residence in one pipeline stage, in virtual time. *)
type stage_exec = {
  stage : int;
  micro : int;
  device : int;
  start : float;
  finish : float;  (** [start] includes the inbound transfer *)
}

val pipeline_schedule :
  latency:(stage:int -> micro:int -> float) ->
  xfer:(stage:int -> micro:int -> float) ->
  stages:int ->
  micros:int ->
  stage_exec list * float
(** Pure virtual-time pipeline schedule (exposed for property tests):
    microbatch [m] enters stage [s] when both the previous stage has
    finished it and the stage has finished microbatch [m - 1];
    [finish (s, m) = max (finish (s-1, m) + xfer (s, m), finish (s, m-1))
    + latency (s, m)]. Returns the records in (stage, micro) order and
    the makespan. *)

type estimate = {
  devices : int;
  compute : float;  (** critical-path compute seconds *)
  comm : float;  (** collective/transfer seconds under the link model *)
  total : float;
  baseline : float;  (** single-device latency of the same graph *)
  speedup : float;  (** [baseline /. total] *)
  per_device : float array;  (** busy compute seconds per device *)
}

type t

val plan :
  ?options:Hidet.Hidet_engine.options ->
  ?strategy:strategy ->
  Hidet_gpu.Cluster.t ->
  Hidet_graph.Graph.t ->
  t
(** Partition [g] for the cluster and compile the per-device fragments
    plus the single-device baseline (on device 0). [options] defaults to
    [{ default_options with deterministic_reduce = true }]; the
    [deterministic_reduce] flag is forced on regardless, since the
    equivalence contract depends on it. [strategy] defaults to [Data].
    Raises [Invalid_argument] when the strategy does not apply to the
    graph (not batch-splittable, no sliceable matmul, fewer batch rows
    than devices, ...) — the differential harness maps this to a skip. *)

val default_options : Hidet.Hidet_engine.options
(** [{ Hidet_engine.default_options with deterministic_reduce = true }] —
    what {!plan} and {!compile_single} compile with. *)

val compile_single :
  ?options:Hidet.Hidet_engine.options ->
  Hidet_gpu.Cluster.t ->
  Hidet_graph.Graph.t ->
  Hidet_runtime.Plan.t * Hidet_runtime.Engine.result
(** Compile the unsharded graph on device 0 under the same deterministic
    options a shard plan's baseline uses — the serving registry's
    fallback when a bucket is too small to partition, so its outputs
    still bit-match the sharded buckets row for row. *)

val strategy : t -> strategy
val cluster : t -> Hidet_gpu.Cluster.t
val baseline : t -> Hidet_runtime.Plan.t
val baseline_result : t -> Hidet_runtime.Engine.result
val fragment_count : t -> int
(** Number of compiled per-device plan fragments. *)

val prepare : t -> unit
(** Eagerly force the constants of the baseline and of every fragment
    plan ({!Hidet_runtime.Plan.prepare}), so worker domains can {!run}
    concurrently without contending on the constant lock. *)

val describe : t -> string
(** One-line human/repro description of the partitioning, e.g.
    ["tensor-gather[n=64: 32+32 | 2x sim-rtx3090]"]. *)

val estimate : t -> estimate
val schedule : t -> stage_exec list
(** The virtual-time schedule ([[]] unless the strategy is pipeline). *)

val ulp_budget : t -> int
(** Max per-element ULP distance from the baseline this plan is allowed:
    [0] for bit-exact strategies; for [Tensor Reduce] a budget scaled by
    the contraction extent (see EXPERIMENTS.md for the rationale). *)

val run :
  ?backend:Hidet_sched.Compiled.backend ->
  t ->
  (int * Hidet_tensor.Tensor.t) list ->
  Hidet_tensor.Tensor.t list
(** Execute the sharded plan: bindings are (graph input id, tensor) in
    any order, results are the graph outputs in order. Every fragment runs
    on [?backend] (default [`Closure]). *)

val run1 : t -> Hidet_tensor.Tensor.t list -> Hidet_tensor.Tensor.t
(** [run] with positional inputs, returning the single output. *)

val verify :
  ?backend:Hidet_sched.Compiled.backend ->
  t ->
  Hidet_tensor.Tensor.t list ->
  (string, string) result
(** Run the sharded plan and the single-device baseline on the same
    inputs, both on [?backend] (default [`Closure]), and compare under the
    strategy's contract: bitwise equality
    ([Int64.bits_of_float]) for bit-exact strategies, the ULP budget
    (with a small absolute-tolerance floor for cancellation near zero)
    for [Tensor Reduce]. [Ok summary] or [Error diagnosis]; the
    diagnosis embeds {!describe} so failures are reproducible. *)
