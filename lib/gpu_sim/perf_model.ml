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
  if block_dim <= 0 then Error "non-positive block_dim"
  else if block_dim > 1024 then Error "block_dim exceeds 1024"
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
    let bps =
      Int.min (Int.min by_threads by_smem) (Int.min by_regs d.max_blocks_per_sm)
    in
    if bps <= 0 then Error "zero resident blocks per SM" else Ok bps
  end

(* Model constants shared by [kernel] and [lower_bounds]. *)

(* Sublinear saturation: latency hiding degrades gracefully below the
   saturation point rather than proportionally. *)
let sat_curve x = Float.min 1. (Float.pow x 0.6)

(* The two saturations at every resident-thread count [0 ..
   max_threads_per_sm], the range of [model]'s (an SM holds at most its
   occupancy limit's blocks). They depend on the device only
   through those two thread counts, so each pair's table is built once per
   process, from the same expressions, and published through an [Atomic]
   (a list read without locking; a domain that loses the race to publish
   looks again). *)
type saturations = {
  threads : int;  (** [saturation_threads_per_sm] *)
  limit : int;  (** [max_threads_per_sm] *)
  mem : float array;
      (** memory latency is hidden at three quarters of the threads compute
          needs *)
  comp : float array;
}

let published : saturations list Atomic.t = Atomic.make []

let rec find_saturations (d : Device.t) = function
  | [] -> raise Not_found
  | s :: rest ->
    if s.threads = d.saturation_threads_per_sm && s.limit = d.max_threads_per_sm
    then s
    else find_saturations d rest

let rec saturations (d : Device.t) =
  let known = Atomic.get published in
  match find_saturations d known with
  | s -> s
  | exception Not_found ->
    let table scale =
      Array.init (d.max_threads_per_sm + 1) (fun resident_threads ->
          sat_curve
            (float_of_int resident_threads
            /. (scale *. float_of_int d.saturation_threads_per_sm)))
    in
    let s =
      {
        threads = d.saturation_threads_per_sm;
        limit = d.max_threads_per_sm;
        mem = table 0.75;
        comp = table 1.;
      }
    in
    if Atomic.compare_and_set published known (s :: known) then s
    else saturations d

let mem_saturation d resident_threads = (saturations d).mem.(resident_threads)
let comp_saturation d resident_threads = (saturations d).comp.(resident_threads)

(* [Float.min] and [Float.max] but inlined, so no float is boxed. They
   differ only on a -0. operand or two NaNs; the model's operands are
   products and quotients of non-negative quantities. *)
let[@inline] fmin (x : float) y = if x < y || Float.is_nan x then x else y
let[@inline] fmax (x : float) y = if x > y || Float.is_nan x then x else y

(* One block can pull at most 1.5x an even per-SM share of DRAM bandwidth. *)
let per_sm_bandwidth_cap = 1.5

(* Pipelined kernels overlap memory and compute; the barrier at each stage
   boundary still exposes a residue of the shorter phase, smaller for
   deeper pipelines: double buffering still stalls on every other tile's
   latency, 3 stages hide most of it, 4 stages nearly all (at the price of
   the extra shared-memory stage, which the occupancy limits already
   charge). Without a pipeline the two phases serialize. *)
let[@inline] overlap ~stages ~mem ~compute =
  let residue =
    if stages >= 4 then 0.02
    else if stages >= 3 then 0.05
    else if stages >= 2 then 0.15
    else 1.
  in
  fmax mem compute +. (residue *. fmin mem compute)

let occupancy_limits (d : Device.t) (k : Kernel.t) =
  blocks_per_sm_limit d ~block_dim:k.block_dim ~smem:(Kernel.shared_bytes k)
    ~regs:(Kernel.regs_per_thread k)

let reuse_window (d : Device.t) ~grid_dim ~blocks_per_sm =
  Int.min d.l2_reuse_window (Int.min grid_dim (d.num_sms * blocks_per_sm))

let waves (d : Device.t) ~grid_dim ~blocks_per_sm =
  ceil_div grid_dim (d.num_sms * blocks_per_sm)

(* [model]'s result: [busy] is the waves' time, [latency] adds the launch
   to it. [model] writes it into a record its caller owns, so the floors'
   loop reuses one record for a whole space. *)
type terms = {
  mutable latency : float;
  mutable busy : float;
  mutable mem_time : float;
  mutable compute_time : float;
}

let terms () = { latency = 0.; busy = 0.; mem_time = 0.; compute_time = 0. }

(* What [model] reads of the device alone, computed once by its caller:
   one SM's peak CUDA-core and tensor-core FLOP rates and the most DRAM
   bandwidth one block may pull. *)
type rates = { sm_fp32 : float; sm_tensor : float; sm_bandwidth : float }

let rates (d : Device.t) =
  {
    sm_fp32 = Device.fp32_flops d /. float_of_int d.num_sms;
    sm_tensor = Device.tensor_flops d /. float_of_int d.num_sms;
    sm_bandwidth =
      per_sm_bandwidth_cap *. d.mem_bandwidth /. float_of_int d.num_sms;
  }

(* The estimate of a launch of [grid_dim] blocks of [block_dim] threads,
   [blocks_per_sm] of them resident per SM, from the per-thread counts and
   the L2 block [reuse] over the {!reuse_window}'s consecutively launched
   blocks, written into [out]. [kernel] passes the kernel's own counts,
   [lower_bounds] floors. It is inlined into both (the dev profile's
   [-opaque] stops inlining at the module's edge), so its float arguments
   are never boxed. *)
let[@inline] model (d : Device.t) (r : rates) ~grid_dim
    ~block_dim ~warps_per_block ~blocks_per_sm ~stages ~global_load_bytes
    ~global_store_bytes ~global_ld_transactions ~shared_bytes ~flops
    ~mma_flops ~syncs ~reuse (out : terms) =
  let concurrent = d.num_sms * blocks_per_sm in
  let active_blocks = Int.min grid_dim concurrent in
  let waves = waves d ~grid_dim ~blocks_per_sm in
  let blocks_on_sm = ceil_div active_blocks d.num_sms in
  let resident_threads = block_dim * blocks_on_sm in
  let sat = saturations d in
  (* Per-block memory traffic: weight raw bytes by the transaction factor
     so strided access pays for wasted cache-line sectors. *)
  let ld_eff =
    if global_load_bytes > 0. then
      global_ld_transactions *. 4. /. global_load_bytes
    else 1.
  in
  (* L2 locality: load traffic shared by a window of consecutively
     launched blocks (bounded by what is actually co-resident) is fetched
     from DRAM once, not once per block. Swizzled launch orders shrink
     the window's union working set and show up here. *)
  let l2_reuse = if global_load_bytes > 0. then reuse else 1. in
  let bytes_block =
    ((global_load_bytes *. fmax 1. ld_eff /. l2_reuse) +. global_store_bytes)
    *. float_of_int block_dim
  in
  (* Bandwidth share per block, capped by what one SM's LSUs can pull and
     degraded when too few threads are resident to hide DRAM latency. *)
  let bw_per_block =
    fmin
      (d.mem_bandwidth /. float_of_int active_blocks)
      r.sm_bandwidth
    *. sat.mem.(resident_threads)
  in
  let mem_time = bytes_block /. bw_per_block in
  (* Compute: peak per SM shared among co-resident blocks, degraded when
     the SM has too few threads to saturate issue ports. *)
  let cuda_per_block =
    r.sm_fp32 /. float_of_int blocks_on_sm *. sat.comp.(resident_threads)
  in
  let tensor_saturation =
    fmin 1. (float_of_int (warps_per_block * blocks_on_sm) /. 8.)
  in
  let tensor_per_block =
    r.sm_tensor /. float_of_int blocks_on_sm *. tensor_saturation
  in
  let shared_per_block =
    d.shared_bandwidth_per_sm /. float_of_int blocks_on_sm
  in
  let flops_block = flops *. float_of_int block_dim in
  let mma_block = mma_flops *. float_of_int warps_per_block in
  let shared_block = shared_bytes *. float_of_int block_dim in
  let compute_time =
    (flops_block /. cuda_per_block)
    +. (mma_block /. fmax tensor_per_block 1.)
    +. (shared_block /. shared_per_block)
  in
  let sync_time = syncs *. d.sync_latency in
  let block_time =
    overlap ~stages ~mem:mem_time ~compute:compute_time +. sync_time
  in
  let busy = float_of_int waves *. block_time in
  out.latency <- d.kernel_launch_overhead +. busy;
  out.busy <- busy;
  out.mem_time <- mem_time;
  out.compute_time <- compute_time

let kernel (d : Device.t) (k : Kernel.t) =
  match occupancy_limits d k with
  | Error note -> infeasible note
  | Ok blocks_per_sm ->
    let grid_dim = k.grid_dim and block_dim = k.block_dim in
    let stages = Pipeline.effective_stages k in
    let t =
      Traffic.analyze ~window:(reuse_window d ~grid_dim ~blocks_per_sm) k
    in
    let c = t.counts and m = terms () in
    model d (rates d) ~grid_dim ~block_dim
      ~warps_per_block:(Kernel.num_warps_per_block k) ~blocks_per_sm ~stages
      ~global_load_bytes:c.global_load_bytes
      ~global_store_bytes:c.global_store_bytes
      ~global_ld_transactions:c.global_ld_transactions
      ~shared_bytes:c.shared_bytes ~flops:c.flops ~mma_flops:c.mma_flops
      ~syncs:c.syncs ~reuse:t.reuse m;
    {
      latency = m.latency;
      mem_time = m.mem_time;
      compute_time = m.compute_time;
      waves = waves d ~grid_dim ~blocks_per_sm;
      blocks_per_sm;
      occupancy =
        Float.min 1.
          (float_of_int (block_dim * blocks_per_sm)
          /. float_of_int d.max_threads_per_sm);
      pipelined = stages >= 2;
      feasible = true;
      (* The binding bottleneck, nsight-style: launch overhead dominating
         the whole run, else the larger of the two per-wave components. *)
      note =
        (if d.kernel_launch_overhead >= m.busy then "launch-bound"
         else if m.mem_time >= m.compute_time then "memory-bound"
         else "compute-bound");
    }

(* --- floors of a space of launches, from their footprints and per-thread
   floors -------------------------------------------------------------------

   [model] on floors: with the exact registers the occupancy, hence the
   resident blocks, waves, active blocks, [blocks_on_sm] and both
   saturations, are [kernel]'s own, and every other input is on the safe
   side of [kernel]'s (the reuse at least, the rest at most). [model]
   evaluates the same expressions in the same order, and rounding is
   monotone in each operand, so the floor stays at or below the latency in
   floating point, not only in the reals:
   - coalescing never makes a load cheaper than its bytes (a floor's
     [ld_eff] is 1, and [kernel]'s [fmax 1. ld_eff >= 1]);
   - a floor has no tensor-core FLOPs, and their term only adds;
   - the pipeline residue shrinks with depth, and the effective depth is at
     most the declared one. *)

type launch = {
  mutable grid : int;
  mutable block_dim : int;
  mutable blocks_per_sm : int;
  mutable stages : int;
}

type work = {
  mutable reuse : float;
  mutable load_bytes : float;
  mutable store_bytes : float;
  mutable shared_bytes : float;
  mutable flops : float;
  mutable syncs : float;
}

let lower_bounds (d : Device.t) n fill =
  let r = rates d and out = terms () in
  let l = { grid = 0; block_dim = 0; blocks_per_sm = 0; stages = 0 } in
  let w =
    {
      reuse = 1.;
      load_bytes = 0.;
      store_bytes = 0.;
      shared_bytes = 0.;
      flops = 0.;
      syncs = 0.;
    }
  in
  let floors = Array.create_float n in
  for i = 0 to n - 1 do
    fill i l w;
    if l.blocks_per_sm <= 0 then floors.(i) <- infinity
    else begin
      model d r ~grid_dim:l.grid ~block_dim:l.block_dim
        ~warps_per_block:(ceil_div l.block_dim 32)
        ~blocks_per_sm:l.blocks_per_sm ~stages:l.stages
        ~global_load_bytes:w.load_bytes ~global_store_bytes:w.store_bytes
        ~global_ld_transactions:(w.load_bytes /. 4.)
        ~shared_bytes:w.shared_bytes ~flops:w.flops ~mma_flops:0.
        ~syncs:w.syncs ~reuse:w.reuse out;
      floors.(i) <- out.latency
    end
  done;
  floors

(* --- fidelity ---------------------------------------------------------------

   The analytic model above is the paper's mode and the default; the
   cycle-approximate model lives in [Hidet_cycle], which depends on this
   library. [Hidet_sched.Compiled.latency] picks between them. *)

type fidelity = [ `Analytic | `Cycle ]

let estimate = kernel
