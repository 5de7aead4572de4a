(** Structural resource extraction from kernels.

    Walks the statement tree once, multiplying by loop extents, to count
    per-thread memory traffic and arithmetic. Loads and stores under
    predication are counted fully: on real hardware a warp issues the
    instruction for all lanes of a partial tile, which is exactly the
    partial-tile waste the hardware-centric schedule space pays for.

    Index arithmetic is free (it overlaps with memory latency); only
    operations in value position count as FLOPs.

    The same walk measures L2 block reuse. It probes the kernel at thread 0
    with every loop index 0, for all block ids of the reuse window at once.
    [Let] values and global-load indices are evaluated as unboxed ints:
    once where they do not depend on the block id, once per block where
    they do (variable loop extents at block 0 only). Probing follows
    {!Hidet_ir.Expr.eval} exactly (on a value that is not an int, or a
    failure on some blocks only, it calls [Expr.eval] block by block);
    free variables and loads read as 0.

    The walk allocates per kernel, per global load site and per
    block-dependent [Let], never per expression node. Counts accumulate in
    place, each leaf adding its count times the product of the enclosing
    loop extents; every count is an integer or a dyadic multiple of such a
    product far below 2^53, so the sums are exact and equal to summing
    per-node records. *)

type counts = {
  global_load_bytes : float;  (** per thread *)
  global_store_bytes : float;  (** per thread *)
  global_ld_transactions : float;
      (** per thread, weighted by coalescing factor: 1.0 = fully coalesced *)
  shared_bytes : float;  (** per thread *)
  flops : float;  (** scalar CUDA-core FLOPs per thread *)
  mma_flops : float;  (** tensor-core FLOPs per warp *)
  syncs : float;  (** per block *)
}

val zero : counts

type analysis = {
  counts : counts;
  reuse : float;  (** {!block_reuse} at the window [analyze] was given *)
}

val analyze : window:int -> Hidet_ir.Kernel.t -> analysis
(** Both analyses from one walk of the kernel. Variable loop extents are
    evaluated at block 0. *)

val kernel : Hidet_ir.Kernel.t -> counts
(** [(analyze ~window:1 k).counts]; a window of 1 probes no block ids. *)

val block_reuse : window:int -> Hidet_ir.Kernel.t -> float
(** [(analyze ~window k).reuse]: the L2-locality factor in [1, window]. It
    says how many times each unit of DRAM traffic is shared across a window
    of [window] consecutively launched blocks (at most the grid).

    Each global load site's flattened index identifies the operand panel
    the block streams. A panel touched by several blocks of the window is
    fetched from DRAM only once. This term is what tells a swizzled
    block-launch order from a row-major one: the per-block bytes are the
    same, but the union working set per window is smaller.

    The factor is the best ratio over any prefix window, since a cache
    covering [window] blocks can always restrict itself to fewer. That
    makes it monotone non-decreasing in [window].

    Failures: a [Let] value that fails to evaluate on a block reads as 0
    on that block. A site whose index fails to evaluate on a block gets a
    fresh value there (conservative: no reuse). Those values are -1, -2, ...
    numbered in block-major site order. *)

val coalescing_stride : Hidet_ir.Expr.t -> int
(** Estimated |d(index)/d(threadIdx.x)| of the innermost index expression
    (evaluated numerically with other variables at zero): 1 means consecutive
    threads touch consecutive elements. *)

val effective_factor : int -> float
(** Memory-traffic multiplier for a given stride: 1.0 when coalesced, up to
    8.0 for badly strided access (cache lines partially wasted). *)
