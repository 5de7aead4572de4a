(** GPU device models.

    The simulator is parameterized by a device description so experiments can
    be re-run on hypothetical hardware. {!rtx3090} mirrors the paper's
    evaluation platform (NVIDIA GeForce RTX 3090, Ampere GA102). *)

type t = {
  name : string;
  num_sms : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  shared_mem_per_sm : int;  (** bytes *)
  shared_mem_per_block : int;  (** bytes, architectural per-block cap *)
  registers_per_sm : int;  (** 32-bit registers *)
  max_registers_per_thread : int;
  mem_bandwidth : float;  (** bytes / second *)
  fp32_tflops : float;  (** CUDA-core FP32 peak *)
  tensor_tflops : float;  (** tensor-core TF32 peak *)
  shared_bandwidth_per_sm : float;  (** bytes / second per SM *)
  kernel_launch_overhead : float;  (** seconds *)
  sync_latency : float;  (** seconds per __syncthreads per block *)
  saturation_threads_per_sm : int;
      (** resident threads needed to reach peak issue rate *)
  l2_reuse_window : int;
      (** how many consecutively launched blocks share the L2 working set;
          scales with L2 capacity. {!Traffic.block_reuse} measures operand
          overlap across this window, which is what thread-block swizzling
          improves (§3.1's block-index remap). *)
  sm_clock_hz : float;  (** SM clock, converts modeled cycles to seconds *)
  cache_line_bytes : int;  (** L1/L2 line size; coalescing granularity *)
  l1_size : int;  (** unified L1/texture cache per SM, bytes *)
  l1_ways : int;  (** L1 set associativity *)
  l2_size : int;  (** device-wide L2, bytes *)
  l2_ways : int;  (** L2 set associativity *)
  l1_latency_cycles : int;  (** load-to-use latency on an L1 hit *)
  l2_latency_cycles : int;  (** load-to-use latency on an L2 hit *)
  dram_latency_cycles : int;  (** load-to-use latency on an L2 miss *)
  smem_latency_cycles : int;  (** shared-memory load-to-use latency *)
}

val rtx3090 : t
(** The paper's evaluation GPU (Ampere GA102). *)

val a100 : t
(** Datacenter Ampere (GA100): more SMs and bandwidth, lower FP32 clock
    throughput, far higher tensor throughput. Used by the device-sweep
    ablation to show the hardware-centric space retargeting. *)

val fp32_flops : t -> float
(** Peak CUDA-core throughput in FLOP/s. *)

val tensor_flops : t -> float
val pp : Format.formatter -> t -> unit
