(** The declarative loop-oriented scheduling substrate: the kernel structure
    that TVM-style [split] / [reorder] / [bind] / [cache_read] /
    [cache_write] / [unroll] primitives produce (paper §2.3, Table 2).

    Two deliberate, paper-central restrictions versus the task-mapping
    templates:

    - {b input-centric tiling}: every tile factor must divide its loop
      extent ("to avoid conditional if-else branches, existing frameworks
      only cover perfect tile sizes", §3.3) — enforced by {!check};
    - {b no software pipelining}: the loop structure interleaves load,
      barrier, compute, barrier; double buffering is inexpressible with the
      declarative primitives (§3.1), so every generated kernel has
      [pipeline_stages = 1].

    GEMM-shaped kernels cover matrix multiplication directly and
    convolution via on-the-fly (implicit) input indexing; depthwise
    convolution gets a direct spatially-tiled kernel. *)

type sched = {
  tile_m : int;  (** block tile rows; must divide m *)
  tile_n : int;  (** block tile cols; must divide n *)
  tile_k : int;  (** reduction strip; must divide k *)
  thread_m : int;  (** per-thread rows; must divide tile_m *)
  thread_n : int;  (** per-thread cols; must divide tile_n *)
  use_shared : bool;  (** cache_read A/B strips into shared memory *)
  unroll : bool;
}

val check : sched -> m:int -> n:int -> k:int -> (unit, string) result
(** Divisibility of all factors plus a 32..1024 thread-count window (real
    templates bind at least a warp). For prime extents the only
    factorizations give 1 or the extent itself, so no schedule passes —
    reproducing the paper's Fig. 16 failure. *)

val first_valid : m:int -> n:int -> k:int -> sched option
(** Deterministic divisor search for any schedule passing {!check}; [None]
    when the input-centric space is empty for these extents (e.g. primes).
    The differential fuzzer uses this as the baseline-lowering oracle
    without paying for a full tuning run. *)

val gemm :
  ?batch:int ->
  ?a_batched:bool ->
  ?b_batched:bool ->
  m:int ->
  n:int ->
  k:int ->
  sched ->
  Hidet_sched.Compiled.t
(** Loop-oriented matmul. Raises [Invalid_argument] if [check] fails. *)

val conv2d :
  x_shape:int list ->
  w_shape:int list ->
  stride:int ->
  pad_h:int ->
  pad_w:int ->
  sched ->
  Hidet_sched.Compiled.t
(** Loop-oriented direct convolution as an implicit GEMM over
    [m = oc], [n = oh*ow] (per image), [k = c*kh*kw]; the padding
    predicate is data semantics, not partial-tile predication, so the
    input-centric restriction still applies to all three GEMM dims. *)

type dw_sched = {
  dw_tile_p : int;  (** spatial tile (output pixels per block); divides oh*ow *)
  dw_thread_p : int;  (** pixels per thread; divides dw_tile_p *)
  dw_unroll : bool;
}

val dw_check : dw_sched -> oh:int -> ow:int -> (unit, string) result

val depthwise :
  x_shape:int list ->
  w_shape:int list ->
  stride:int ->
  padding:int ->
  dw_sched ->
  Hidet_sched.Compiled.t
(** Loop-oriented depthwise convolution: block per (image, channel, spatial
    tile); each thread produces [dw_thread_p] consecutive outputs, reusing
    the weight values held in registers. *)
