(** Analytic latency model.

    Latency is estimated from structural resource counts ({!Traffic}),
    occupancy, wave quantization and pipeline overlap:

    - Occupancy: resident blocks per SM are limited by threads, shared
      memory, registers, and the architectural block cap. A kernel whose
      block exceeds any per-block resource is infeasible.
    - Waves: blocks are dispatched in waves of [num_sms * blocks_per_sm]; a
      partially filled final wave costs a full wave (wave quantization).
    - Per-block time: memory time (bandwidth shared among active blocks,
      degraded by poor coalescing and low thread counts, and discounted by
      the {!Traffic.block_reuse} L2-locality factor over the device's
      [l2_reuse_window]) and compute time (CUDA-core + tensor-core +
      shared-memory throughput). With a validated pipelined main loop
      (stages >= 2) the two overlap: [max(mem, compute)] plus a residue of
      the shorter phase that shrinks with pipeline depth (2 / 3 / 4+
      stages); otherwise they serialize: [mem + compute].
    - Fixed costs: kernel launch overhead and per-barrier latency.

    The model is calibrated to RTX 3090 peaks; absolute values are plausible
    but the goal is ordinal fidelity across schedules (see DESIGN.md §3). *)

type estimate = {
  latency : float;  (** seconds, including launch overhead *)
  mem_time : float;  (** per-wave memory component *)
  compute_time : float;  (** per-wave compute component *)
  waves : int;
  blocks_per_sm : int;
  occupancy : float;  (** resident threads / max threads per SM *)
  pipelined : bool;
  feasible : bool;
  note : string;
      (** infeasible: the reason; feasible: the binding bottleneck —
          ["memory-bound"], ["compute-bound"] or ["launch-bound"] *)
}

val infeasible : string -> estimate

val blocks_per_sm_limit :
  Device.t -> block_dim:int -> smem:int -> regs:int -> (int, string) result
(** Resident blocks per SM given a block's resource footprint, or the
    infeasibility reason (a [block_dim] outside [1, 1024] included). A
    kernel with [regs = 0] is not register-limited (the thread /
    shared-memory limits still apply). *)

val kernel : Device.t -> Hidet_ir.Kernel.t -> estimate
(** Estimate one kernel launch: one {!Traffic.analyze} walk at
    the {!reuse_window}, then the model below on its counts and reuse. *)

val per_sm_bandwidth_cap : float
(** 1.5: the most DRAM bandwidth one SM can pull, as a multiple of an even
    per-SM share. The cycle model uses the same cap. *)

val reuse_window : Device.t -> grid_dim:int -> blocks_per_sm:int -> int
(** The window the model reads the L2 block reuse at: the co-resident
    blocks of a launch of [grid_dim] blocks, [blocks_per_sm] per SM, at
    most the device's [l2_reuse_window]. *)

(** {1 Saturations}

    Latency hiding degrades sublinearly below a device's
    [saturation_threads_per_sm]: [sat_curve x = min 1 (x ** 0.6)] of the
    resident threads over three quarters of it (memory) or over all of it
    (compute). The model reads both from a table over every resident-thread
    count [0 .. max_threads_per_sm], built once per process for each
    ([saturation_threads_per_sm], [max_threads_per_sm]) pair from the same
    expressions, so no estimate calls [Float.pow]. *)

val sat_curve : float -> float
(** [min 1 (x ** 0.6)]. *)

val mem_saturation : Device.t -> int -> float
(** [mem_saturation d r] is the table's
    [sat_curve (r / (0.75 * saturation_threads_per_sm))], for [r] in
    [0 .. max_threads_per_sm]. *)

val comp_saturation : Device.t -> int -> float
(** [comp_saturation d r] is the table's
    [sat_curve (r / saturation_threads_per_sm)], for [r] in
    [0 .. max_threads_per_sm]. *)

type launch = {
  mutable grid : int;
  mutable block_dim : int;
  mutable blocks_per_sm : int;
      (** {!blocks_per_sm_limit} of the footprint, or [0] where it is an
          [Error] *)
  mutable stages : int;  (** declared pipeline depth *)
}
(** A launch's shape, as {!lower_bounds} asks for it. *)

type work = {
  mutable reuse : float;
      (** at least the kernel's {!Traffic.block_reuse} at the
          {!reuse_window} of the launch *)
  mutable load_bytes : float;
  mutable store_bytes : float;
  mutable shared_bytes : float;
  mutable flops : float;
  mutable syncs : float;
}
(** Floors on a launch's per-thread {!Traffic.counts}, and its reuse. All
    floats, so writing a field allocates nothing. *)

val lower_bounds :
  Device.t -> int -> (int -> launch -> work -> unit) -> float array
(** [lower_bounds d n fill] is, at each index [i < n], a floor on
    {!kernel}'s latency for every kernel with the launch and the floors
    [fill i l w] writes into [l] and [w]: launched as [l.grid] blocks of
    [l.block_dim] threads with [l.blocks_per_sm] resident blocks per SM
    (its exact footprint's: shared bytes and registers as
    {!Hidet_ir.Kernel.regs_per_thread} counts them) and [l.stages]
    declared stages, whose {!Traffic.kernel} counts are at least [w]'s
    (global load, store and shared bytes, FLOPs), with exactly [w.syncs]
    barriers per block, any coalescing and any tensor-core FLOPs, and
    whose L2 reuse is at most [w.reuse]. [infinity] where [fill] leaves
    [l.blocks_per_sm = 0], and then no other field is read. [fill] is
    called once per index, in order, with the same two records each
    time, and writes [l.blocks_per_sm] and, where it is positive, every
    other field.

    It runs {!kernel}'s model on those numbers, with no kernel: with the
    exact footprint the occupancy, waves and saturations are {!kernel}'s
    own, every other input is on the safe side (no coalescing credit, no
    tensor-core term), and rounding is monotone in each operand, so the
    floor never exceeds the latency in floating point. The loop allocates
    the result array and nothing per index. *)

(** {1 Fidelity modes}

    [`Analytic] is the model above (the paper's mode, and the default).
    [`Cycle] is the cycle-approximate model of the [Hidet_cycle] library —
    per-warp coalescing, shared-memory bank conflicts, an L1/L2 cache
    simulation and a latency-hiding warp scheduler. Both are selected by
    [Hidet_sched.Compiled.latency ?fidelity]. *)

type fidelity = [ `Analytic | `Cycle ]

val estimate : Device.t -> Hidet_ir.Kernel.t -> estimate
(** The analytic estimate: {!kernel}. *)
