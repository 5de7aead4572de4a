type t = {
  name : string;
  num_sms : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  shared_mem_per_sm : int;
  shared_mem_per_block : int;
  registers_per_sm : int;
  max_registers_per_thread : int;
  mem_bandwidth : float;
  fp32_tflops : float;
  tensor_tflops : float;
  shared_bandwidth_per_sm : float;
  kernel_launch_overhead : float;
  sync_latency : float;
  saturation_threads_per_sm : int;
  l2_reuse_window : int;
  sm_clock_hz : float;
  cache_line_bytes : int;
  l1_size : int;
  l1_ways : int;
  l2_size : int;
  l2_ways : int;
  l1_latency_cycles : int;
  l2_latency_cycles : int;
  dram_latency_cycles : int;
  smem_latency_cycles : int;
}

let rtx3090 =
  {
    name = "rtx3090";
    num_sms = 82;
    max_threads_per_sm = 1536;
    max_blocks_per_sm = 16;
    shared_mem_per_sm = 100 * 1024;
    shared_mem_per_block = 99 * 1024;
    registers_per_sm = 65536;
    max_registers_per_thread = 255;
    mem_bandwidth = 936.0e9;
    fp32_tflops = 35.6;
    tensor_tflops = 71.0;
    (* 128 bytes/cycle/SM at ~1.7 GHz. *)
    shared_bandwidth_per_sm = 128.0 *. 1.7e9;
    kernel_launch_overhead = 4.0e-6;
    sync_latency = 30.0e-9;
    saturation_threads_per_sm = 512;
    (* 6 MB L2: roughly 8 concurrently resident blocks' operand panels
       coexist before eviction. *)
    l2_reuse_window = 8;
    (* Cycle-fidelity parameters (GA102): unified 128 KB L1/shared per SM,
       6 MB L2, 128-byte lines. Latencies are the usual microbenchmark
       ballpark figures for Ampere. *)
    sm_clock_hz = 1.70e9;
    cache_line_bytes = 128;
    l1_size = 128 * 1024;
    l1_ways = 4;
    l2_size = 6 * 1024 * 1024;
    l2_ways = 16;
    l1_latency_cycles = 30;
    l2_latency_cycles = 200;
    dram_latency_cycles = 400;
    smem_latency_cycles = 25;
  }

let a100 =
  {
    name = "a100";
    num_sms = 108;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    shared_mem_per_sm = 164 * 1024;
    shared_mem_per_block = 163 * 1024;
    registers_per_sm = 65536;
    max_registers_per_thread = 255;
    mem_bandwidth = 1555.0e9;
    fp32_tflops = 19.5;
    tensor_tflops = 156.0;
    shared_bandwidth_per_sm = 128.0 *. 1.41e9;
    kernel_launch_overhead = 4.0e-6;
    sync_latency = 30.0e-9;
    saturation_threads_per_sm = 512;
    (* 40 MB L2 keeps a wider neighborhood of blocks' panels resident. *)
    l2_reuse_window = 16;
    sm_clock_hz = 1.41e9;
    cache_line_bytes = 128;
    l1_size = 192 * 1024;
    l1_ways = 4;
    l2_size = 40 * 1024 * 1024;
    l2_ways = 16;
    l1_latency_cycles = 30;
    l2_latency_cycles = 200;
    dram_latency_cycles = 400;
    smem_latency_cycles = 25;
  }

let fp32_flops d = d.fp32_tflops *. 1e12
let tensor_flops d = d.tensor_tflops *. 1e12

let pp fmt d =
  Format.fprintf fmt "%s: %d SMs, %.0f GB/s, %.1f/%.1f TFLOPS (fp32/tensor)"
    d.name d.num_sms (d.mem_bandwidth /. 1e9) d.fp32_tflops d.tensor_tflops
