open Hidet_ir

type estimate = {
  latency : float;
  mem_time : float;
  compute_time : float;
  waves : int;
  blocks_per_sm : int;
  occupancy : float;
  pipelined : bool;
  feasible : bool;
  note : string;
}

let infeasible note =
  {
    latency = infinity;
    mem_time = infinity;
    compute_time = infinity;
    waves = 0;
    blocks_per_sm = 0;
    occupancy = 0.;
    pipelined = false;
    feasible = false;
    note;
  }

let ceil_div a b = (a + b - 1) / b

let blocks_per_sm_limit (d : Device.t) ~block_dim ~smem ~regs =
  if block_dim > 1024 then Error "block_dim exceeds 1024"
  else if smem > d.shared_mem_per_block then
    Error (Printf.sprintf "shared memory %d B exceeds per-block cap %d B" smem d.shared_mem_per_block)
  else if regs > d.max_registers_per_thread then
    Error (Printf.sprintf "%d registers/thread exceeds cap %d" regs d.max_registers_per_thread)
  else begin
    let by_threads = d.max_threads_per_sm / block_dim in
    let by_smem = if smem = 0 then d.max_blocks_per_sm else d.shared_mem_per_sm / smem in
    (* A kernel that declares no registers is not register-limited. *)
    let by_regs =
      if regs = 0 then d.max_blocks_per_sm
      else d.registers_per_sm / (regs * block_dim)
    in
    let bps = min (min by_threads by_smem) (min by_regs d.max_blocks_per_sm) in
    if bps <= 0 then Error "zero resident blocks per SM" else Ok bps
  end

(* Model constants shared by [kernel] and [lower_bound]. *)

(* Sublinear saturation: latency hiding degrades gracefully below the
   saturation point rather than proportionally. *)
let sat_curve x = Float.min 1. (Float.pow x 0.6)

(* Memory latency is hidden at three quarters of the threads compute
   needs. *)
let mem_saturation (d : Device.t) resident_threads =
  sat_curve (resident_threads /. (0.75 *. float_of_int d.saturation_threads_per_sm))

let comp_saturation (d : Device.t) resident_threads =
  sat_curve (resident_threads /. float_of_int d.saturation_threads_per_sm)

(* One block can pull at most 1.5x an even per-SM share of DRAM bandwidth. *)
let per_sm_bandwidth_cap = 1.5

(* Pipelined kernels overlap memory and compute; the barrier at each stage
   boundary still exposes a residue of the shorter phase, smaller for
   deeper pipelines: double buffering still stalls on every other tile's
   latency, 3 stages hide most of it, 4 stages nearly all (at the price of
   the extra shared-memory stage, which the occupancy limits already
   charge). Without a pipeline the two phases serialize. *)
let overlap ~stages ~mem ~compute =
  let residue =
    if stages >= 4 then 0.02
    else if stages >= 3 then 0.05
    else if stages >= 2 then 0.15
    else 1.
  in
  Float.max mem compute +. (residue *. Float.min mem compute)

let occupancy_limits (d : Device.t) (k : Kernel.t) =
  blocks_per_sm_limit d ~block_dim:k.block_dim ~smem:(Kernel.shared_bytes k)
    ~regs:(Kernel.regs_per_thread k)

let kernel (d : Device.t) (k : Kernel.t) =
  match occupancy_limits d k with
  | Error note -> infeasible note
  | Ok blocks_per_sm ->
    let stages = Pipeline.effective_stages k in
    let pipelined = stages >= 2 in
    let warps_per_block = Kernel.num_warps_per_block k in
    let concurrent = d.num_sms * blocks_per_sm in
    let active_blocks = min k.grid_dim concurrent in
    (* One walk gives the traffic counts and the L2 block reuse over the
       window of consecutively launched blocks that are co-resident. *)
    let t = Traffic.analyze ~window:(min d.l2_reuse_window active_blocks) k in
    let c = t.Traffic.counts in
    let waves = ceil_div k.grid_dim concurrent in
    let blocks_on_sm = ceil_div active_blocks d.num_sms in
    let resident_threads = float_of_int (k.block_dim * blocks_on_sm) in
    let occupancy =
      Float.min 1.
        (float_of_int (k.block_dim * blocks_per_sm)
        /. float_of_int d.max_threads_per_sm)
    in
    (* Per-block memory traffic: weight raw bytes by the transaction factor
       so strided access pays for wasted cache-line sectors. *)
    let ld_eff =
      if c.global_load_bytes > 0. then
        c.global_ld_transactions *. 4. /. c.global_load_bytes
      else 1.
    in
    (* L2 locality: load traffic shared by a window of consecutively
       launched blocks (bounded by what is actually co-resident) is fetched
       from DRAM once, not once per block. Swizzled launch orders shrink
       the window's union working set and show up here. *)
    let l2_reuse = if c.global_load_bytes > 0. then t.Traffic.reuse else 1. in
    let bytes_block =
      ((c.global_load_bytes *. Float.max 1. ld_eff /. l2_reuse)
      +. c.global_store_bytes)
      *. float_of_int k.block_dim
    in
    (* Bandwidth share per block, capped by what one SM's LSUs can pull and
       degraded when too few threads are resident to hide DRAM latency. *)
    let bw_per_block =
      Float.min
        (d.mem_bandwidth /. float_of_int active_blocks)
        (per_sm_bandwidth_cap *. d.mem_bandwidth /. float_of_int d.num_sms)
      *. mem_saturation d resident_threads
    in
    let mem_time = bytes_block /. bw_per_block in
    (* Compute: peak per SM shared among co-resident blocks, degraded when
       the SM has too few threads to saturate issue ports. *)
    let cuda_per_block =
      Device.fp32_flops d /. float_of_int d.num_sms
      /. float_of_int blocks_on_sm *. comp_saturation d resident_threads
    in
    let tensor_saturation =
      Float.min 1. (float_of_int (warps_per_block * blocks_on_sm) /. 8.)
    in
    let tensor_per_block =
      Device.tensor_flops d /. float_of_int d.num_sms
      /. float_of_int blocks_on_sm *. tensor_saturation
    in
    let shared_per_block =
      d.shared_bandwidth_per_sm /. float_of_int blocks_on_sm
    in
    let flops_block = c.flops *. float_of_int k.block_dim in
    let mma_block = c.mma_flops *. float_of_int warps_per_block in
    let shared_block = c.shared_bytes *. float_of_int k.block_dim in
    let compute_time =
      (flops_block /. cuda_per_block)
      +. (mma_block /. Float.max tensor_per_block 1.)
      +. (shared_block /. shared_per_block)
    in
    let sync_time = c.syncs *. d.sync_latency in
    let block_time =
      overlap ~stages ~mem:mem_time ~compute:compute_time +. sync_time
    in
    let latency =
      d.kernel_launch_overhead +. (float_of_int waves *. block_time)
    in
    (* The binding bottleneck, nsight-style: launch overhead dominating the
       whole run, else the larger of the two per-wave components. *)
    let note =
      if d.kernel_launch_overhead >= float_of_int waves *. block_time then
        "launch-bound"
      else if mem_time >= compute_time then "memory-bound"
      else "compute-bound"
    in
    {
      latency;
      mem_time;
      compute_time;
      waves;
      blocks_per_sm;
      occupancy;
      pipelined;
      feasible = true;
      note;
    }

(* --- a lower bound from launch shape and per-block floors ----------------------

   Every term of [kernel] above, bounded from below without the kernel:
   - resident blocks per SM ignore registers, so [bps_ub] >= [blocks_per_sm]
     and the resident threads, hence both saturations, are at most their
     [resident_ub] values;
   - [waves * blocks_on_sm >= ceil(grid / SMs)] bounds the compute waves,
     and [waves * active_blocks >= grid] and
     [waves >= ceil(grid / (SMs * bps_ub))] the two bandwidth shares;
   - L2 reuse never exceeds its window, at most [min(l2_reuse_window, grid)]
     blocks, and coalescing never makes a load cheaper than its bytes;
   - the pipeline residue shrinks with depth, and [overlap] grows in both
     phases, so the declared depth and the floors give at most the kernel's
     block time (sync time is dropped). *)

let lower_bound (d : Device.t) ~grid ~block_dim ~smem ~stages ~flops
    ~shared_bytes ~load_bytes ~store_bytes =
  match blocks_per_sm_limit d ~block_dim ~smem ~regs:0 with
  | Error _ -> infinity
  | Ok bps_ub ->
    let f = float_of_int and sms = d.num_sms in
    let resident_ub = f (block_dim * ceil_div (min grid (sms * bps_ub)) sms) in
    let compute =
      f (ceil_div grid sms)
      *. ((flops *. f sms /. Device.fp32_flops d
          /. comp_saturation d resident_ub)
         +. (shared_bytes /. d.shared_bandwidth_per_sm))
    in
    let bytes = (load_bytes /. f (min d.l2_reuse_window grid)) +. store_bytes in
    let mem =
      Float.max
        (f grid *. bytes /. d.mem_bandwidth)
        (f (ceil_div grid (sms * bps_ub)) *. bytes *. f sms
        /. (per_sm_bandwidth_cap *. d.mem_bandwidth))
      /. mem_saturation d resident_ub
    in
    d.kernel_launch_overhead +. overlap ~stages ~mem ~compute

(* --- fidelity dispatch ------------------------------------------------------

   The analytic model above is the paper's mode and stays the default; the
   cycle-approximate model lives in [Hidet_cycle] (which depends on this
   library) and registers itself here at link time. With no model registered
   [`Cycle] degrades to the analytic estimate, so nothing in this library's
   behavior depends on whether the cycle library is linked. *)

type fidelity = [ `Analytic | `Cycle ]

let cycle_model : (Device.t -> Kernel.t -> estimate) option Atomic.t =
  Atomic.make None

let register_cycle_model f = Atomic.set cycle_model (Some f)

let estimate ?(fidelity = `Analytic) d k =
  match fidelity with
  | `Analytic -> kernel d k
  | `Cycle -> (
    match Atomic.get cycle_model with
    | Some f -> f d k
    | None -> kernel d k)
