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
    infeasibility reason. A kernel with [regs = 0] is not register-limited
    (the thread / shared-memory limits still apply). *)

val kernel : Device.t -> Hidet_ir.Kernel.t -> estimate
(** Estimate one kernel launch. *)

val per_sm_bandwidth_cap : float
(** 1.5: the most DRAM bandwidth one SM can pull, as a multiple of an even
    per-SM share. The cycle model uses the same cap. *)

val lower_bound :
  Device.t ->
  grid:int ->
  block_dim:int ->
  smem:int ->
  stages:int ->
  flops:float ->
  shared_bytes:float ->
  load_bytes:float ->
  store_bytes:float ->
  float
(** A floor on {!kernel}'s latency for every kernel with this launch shape
    ([grid], [block_dim], [smem] shared bytes per block, [stages] declared
    pipeline depth) whose blocks each do at least the given work: CUDA-core
    [flops], [shared_bytes] of shared-memory traffic, [load_bytes] of global
    loads (before L2 reuse) and [store_bytes] of global stores. Computed
    from those numbers alone, with no kernel; [infinity] when the shape is
    infeasible whatever the registers. Launch plus the overlap of a memory
    floor at the best possible L2 reuse and a compute floor, each at the
    largest resident thread count the shape admits. *)

(** {1 Fidelity modes}

    [`Analytic] is the model above (the paper's mode, and the default).
    [`Cycle] routes to the cycle-approximate model of the [Hidet_cycle]
    library — per-warp coalescing, shared-memory bank conflicts, an L1/L2
    cache simulation and a latency-hiding warp scheduler — which registers
    itself via {!register_cycle_model} at link time. When no cycle model is
    registered, [`Cycle] degrades to the analytic estimate. *)

type fidelity = [ `Analytic | `Cycle ]

val register_cycle_model : (Device.t -> Hidet_ir.Kernel.t -> estimate) -> unit
(** Called by [Hidet_cycle.Fidelity] at module initialization. *)

val estimate : ?fidelity:fidelity -> Device.t -> Hidet_ir.Kernel.t -> estimate
(** {!kernel} under [`Analytic] (the default; bit-identical); the
    registered cycle model under [`Cycle]. *)
