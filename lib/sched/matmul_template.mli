(** The template-based schedule for matrix multiplication, written in the
    task-mapping paradigm (the paper's §5.1.3 and Fig. 2/3/5).

    The generated kernel computes [C\[b,i,j\] = sum_k A\[b,i,k\] * B\[(b,)k,j\]]
    with:
    - block tiling [block_m x block_n], k-tiles of [block_k];
    - cooperative, predicated loading of A/B tiles into shared memory using
      composed task mappings ([repeat ∘ spatial], the paper's Fig. 8);
    - per-warp tiles [warp_m x warp_n]; CUDA-core path with per-thread
      register tiles via [repeat(tm, tn) ∘ spatial(4, 8)], or tensor-core
      path via 16x16x8 MMA instructions;
    - optional {b software pipelining}: with [stages = 2] (double
      buffering, Fig. 5) registers prefetch tile [k+1] while tile [k] is
      being computed; with [stages = 3] two tiles are kept in flight in a
      circular shared-memory buffer — both inexpressible in declarative
      loop-oriented scheduling;
    - optional {b split-k parallel reduction}: the k dimension is split over
      [split_k] thread blocks writing partial products, followed by a small
      reduction kernel (used by implicit-GEMM convolution, §6.2.4).

    Because loads and stores are predicated, tile sizes need not divide the
    problem sizes — the basis of the hardware-centric schedule space. *)

type config = {
  block_m : int;
  block_n : int;
  block_k : int;
  warp_m : int;  (** multiple of 4 (CUDA-core) or 16 (tensor-core) *)
  warp_n : int;  (** multiple of 8 (CUDA-core) or 16 (tensor-core) *)
  stages : int;
      (** software-pipeline depth: 1 = none, 2 = double buffering (Fig. 5),
          3–4 = multi-stage asynchronous prefetch (the CUTLASS-on-Ampere
          pattern the paper's §3.1 also lists as inexpressible with
          declarative loop-oriented primitives); each extra stage keeps one
          more tile in flight in the circular shared-memory buffer *)
  split_k : int;
  use_tensor_core : bool;
  swizzle : bool;
      (** thread-block swizzle (§3.1): remap the linear block index so
          neighboring blocks share B-operand panels, improving L2 locality
          on real hardware; expressed here as plain index arithmetic on the
          block id, which loop-oriented primitives cannot touch *)
}

val default_config : config

val check : config -> (unit, string) result
(** Structural validity (divisibility, warp count, load-mapping existence),
    independent of problem size. Resource feasibility on a device is judged
    by {!Hidet_gpu.Perf_model}. *)

val config_to_string : config -> string

val num_warps : config -> int
val block_dim : config -> int

val compile :
  ?batch:int ->
  ?a_batched:bool ->
  ?b_batched:bool ->
  m:int ->
  n:int ->
  k:int ->
  config ->
  Compiled.t
(** Raises [Invalid_argument] if [check] fails. [a_batched] (default true)
    selects a [batch, m, k] first operand versus shared [m, k]; [b_batched]
    (default false) selects a [batch, k, n] second operand versus shared
    [k, n] weights. Implicit-GEMM convolution uses [a_batched:false]
    (weights) with [b_batched:true] (im2col columns per image). *)

val syncs : k:int -> config -> int
(** The barriers block 0 of [compile ~k cfg]'s main kernel executes, in
    closed form: [1 + trips] with a pipeline ([stages >= 2]), [2 * trips]
    without, where [trips] is the block's split-k chunk of k-tiles. *)

val regs_per_thread : config -> int
(** {!Hidet_ir.Kernel.regs_per_thread} of [compile]'s main kernel, in
    closed form: [tm*tn + tm + tn] on the CUDA-core path ([tm = warp_m/4],
    [tn = warp_n/8]) or [⌈warp_m*warp_n/32⌉] on the tensor-core path, plus
    one A and one B tile's share per thread of staging registers when
    [stages >= 2], plus 24. For a config [check] accepts. *)

val block_reuse :
  ?batch:int ->
  ?a_batched:bool ->
  ?b_batched:bool ->
  m:int ->
  n:int ->
  k:int ->
  config ->
  window:int ->
  float
(** [block_reuse ~batch ~a_batched ~b_batched ~m ~n ~k cfg ~window] is
    {!Hidet_gpu.Traffic.block_reuse} [~window] of [compile]'s main kernel,
    in closed form. At thread 0 with loop indices 0, every A load of a
    block reads [base_A + c] and every B load [base_B + c'] (c, c' fixed
    per load site), with
    - [base_A = (b*m + im*block_m)*k + kstart*block_k] ([b*m] only when A
      is batched),
    - [base_B = (b*k + kstart*block_k)*n + jn*block_n] ([b*k] only when B
      is batched),
    and the A and B sites weigh [block_m : block_n]. So the distinct bases
    of each prefix of the window's blocks, decoded in [compile]'s launch
    order (row-major, panelized swizzle or column-major), give the reuse.
    It is raised by a relative [5e-13], so it is never below [Traffic]'s
    value and within [1e-12] of it. An operand layout left out takes the
    larger reuse of its two layouts, so the result bounds both. It reads
    the block tile, [split_k], [swizzle] and, when [split_k > 1],
    [block_k] of the config (with [split_k = 1] every block starts at
    k-tile 0). *)

val reduce_latency :
  Hidet_gpu.Device.t -> batch:int -> m:int -> n:int -> int -> float
(** [reduce_latency d ~batch ~m ~n split_k] is the analytic latency of the
    split-k reduce kernel that [compile ~batch ~m ~n] emits for a config
    with this [split_k] (> 1). The kernel depends on nothing else, and
    both build it with one builder. Partially applied up to [~n], it
    estimates each split-k factor once; call the closure from one
    domain. *)

type terms
(** The terms of the floors of a config array that depend on the configs
    alone ([check], {!block_dim}, {!regs_per_thread}, the shared bytes,
    the stores and the per-k-tile words staged, read and multiplied per
    thread, and which configs share a {!block_reuse}), and per device the
    resident blocks of each config, computed by the first {!lower_bound}
    on that device. Built once per space, a [terms] serves every shape
    and device that space is floored for, from any domain. *)

val terms : config array -> terms

val lower_bound :
  ?batch:int ->
  ?a_batched:bool ->
  ?b_batched:bool ->
  ?terms:terms ->
  Hidet_gpu.Device.t ->
  m:int ->
  n:int ->
  k:int ->
  config array ->
  float array
(** [lower_bound ~batch ~a_batched ~b_batched d ~m ~n ~k configs] is, at
    each index, a floor on the analytic {!Compiled.latency} of [compile
    ~batch ~a_batched ~b_batched ~m ~n ~k] of that config on the device,
    from the config and shape alone (no main-kernel IR). The registers
    ({!regs_per_thread}), hence the occupancy, waves and saturations, the
    barriers ({!syncs}) and the L2 reuse ({!block_reuse}) are exact, and a
    split-k config adds the reduce kernel's exact latency
    ({!reduce_latency}). The loads, shared-memory traffic and FLOPs are
    floors, and the terms are combined by
    {!Hidet_gpu.Perf_model.lower_bounds}, so the floor never exceeds the
    latency in floating point. One call estimates each of the shape's
    reduce kernels and computes each distinct {!block_reuse} once.

    [?terms] must be [terms] of [configs]'s very configs (physically, in
    the same order; [Invalid_argument] otherwise); without it they are
    built for the call. With them the call runs
    {!Hidet_gpu.Perf_model.lower_bounds} once over the space, writing
    each config's launch and per-thread floors into its two records:
    beyond the result, the reuses' closed forms and the reduce kernels it
    allocates nothing per config.

    An operand layout left out bounds both of its layouts. [0.] for a
    config [check] refuses, so a tuner that skips on it still sees the
    rejection; [infinity] for one no device occupancy admits, registers
    included. *)
