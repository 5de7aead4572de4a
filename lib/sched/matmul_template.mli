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

val lower_bound :
  Hidet_gpu.Device.t -> ?batch:int -> m:int -> n:int -> k:int -> config -> float
(** A floor on the analytic {!Compiled.latency} of [compile ~batch ~m ~n ~k
    cfg] on the device, from the config and shape alone (no IR): it never
    exceeds that latency, for either operand layout. [0.] for a config
    [check] refuses, so a tuner that skips on it still sees the rejection;
    [infinity] for one no device occupancy admits. *)
