(** The Hidet compilation pipeline (the paper's Fig. 10):

    1. graph-level optimizations (constant folding, dead-code elimination)
       plus lowering of convolutions to implicit GEMM;
    2. fusion partitioning (anchor + injective prologues + bijective
       epilogues);
    3. anchor scheduling — template-based for matmul (hardware-centric
       space, exhaustively tuned, workload-cached), row templates for
       softmax/layernorm, block-parallel reduction for global pooling,
       rule-based for everything else;
    4. post-scheduling fusion of the group into the scheduled program
       (falling back to standalone rule-based kernels when a neighbor
       cannot be fused, e.g. rank-incompatible transforms);
    5. lowering to CUDA C text + executable plan on the simulator.

    The pipeline is {!Hidet_runtime.Engine.compile}, the one every engine
    runs; this module supplies what makes it Hidet: the tuned arms of
    step 3, fusion and conv lowering per {!options}, and the tuning-cost
    billing. *)

type options = {
  lower_convs : bool;  (** implicit-GEMM lowering (default true) *)
  fuse : bool;  (** post-scheduling fusion (default true; off = ablation) *)
  allow_tensor_core : bool;  (** default true; off = ablation *)
  allow_double_buffer : bool;  (** default true; off = ablation *)
  deterministic_reduce : bool;
      (** Restrict tuning to reduction-order-canonical schedules (default
          false). Matmul candidates are pinned to [split_k = 1],
          [block_k = 8], no tensor cores — every surviving config
          accumulates each output element in strictly ascending k order —
          and the row/reduction templates (softmax, layernorm, global
          pooling) are pinned to one block size, so their shared-memory
          combine trees are shape-independent. Under this mode, two plans
          that compute the same output element — at any batch size or
          column slice — produce bit-identical results, which is what
          lets the shard runtime promise bit-equality between a sharded
          plan and its single-device oracle whenever the partitioning
          preserves reduction extents. *)
  fidelity : Hidet_gpu.Perf_model.fidelity;
      (** latency model for tuning measurements and the plan latency
          (default [`Analytic]); matmul spaces are tuned by
          branch-and-bound under its floor *)
}

val default_options : options

val compile_plan :
  ?options:options ->
  Hidet_gpu.Device.t ->
  Hidet_graph.Graph.t ->
  Hidet_runtime.Plan.t * Hidet_runtime.Engine.result
(** Compile to an executable plan plus the engine result record (latency,
    tuning cost, kernel count). Tuning goes through the process-global
    {!Hidet_sched.Schedule_cache} keyed by (device, workload signature,
    space-restricting options, fidelity): the first compile of a
    workload pays fresh trials ([result.tuning_cost]); later compiles —
    same model again, another model sharing shapes, or a warm-started
    process — perform zero fresh trials and report the avoided cost as
    [result.cached_tuning_cost]. *)

val matmul_space :
  options -> m:int -> n:int -> Hidet_sched.Matmul_template.config array
(** The candidates {!compile_plan} tunes a matmul with an [m x n] output
    over under [options]: {!Hidet_sched.Space.matmul_with_split_k} without
    the configs the options rule out. Built once per split-k class and
    options, and shared: the array must not be written. *)

val group_config :
  ?options:options -> Hidet_gpu.Device.t -> Hidet_runtime.Group_compiler.config
(** The anchor scheduler and fusion predicates that {!compile_plan} hands
    to {!Hidet_runtime.Engine.compile}, for one compile; the tuning costs
    it incurs are not reported anywhere. Differential tests wrap it to
    compile without the memos. *)

include Hidet_runtime.Engine.S
