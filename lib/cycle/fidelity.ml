open Hidet_ir
module Device = Hidet_gpu.Device
module Perf_model = Hidet_gpu.Perf_model
module Traffic = Hidet_gpu.Traffic
module Pipeline = Hidet_gpu.Pipeline
module Metrics = Hidet_obs.Metrics

(* The cycle-approximate estimate: Access-derived per-warp footprints, an
   L1/L2 cache replay of the sampled address stream, and the Warp_sched
   latency-hiding simulation, converted to seconds by the device's SM
   clock. Wave quantization, occupancy limits and launch overhead are
   shared with the analytic model so the two fidelities disagree only about
   what happens inside a wave. *)

type extras = {
  txn_per_access : float;  (** mean coalesced transactions per warp access *)
  conflict_factor : float;  (** weighted mean bank-conflict degree *)
  l1_hit : float;
  l2_hit : float;  (** includes cross-block reuse of the L2 window *)
  n_static : int;
  n_traced : int;
  sim_cycles : float;  (** modeled cycles for one wave's resident warp set *)
  iters : int;
}

let no_extras =
  {
    txn_per_access = 0.;
    conflict_factor = 1.;
    l1_hit = 0.;
    l2_hit = 0.;
    n_static = 0;
    n_traced = 0;
    sim_cycles = 0.;
    iters = 0;
  }

let m_estimates = Metrics.counter "cycle.estimates"
let m_traced = Metrics.counter "cycle.traced_sites"

let ceil_div a b = (a + b - 1) / b

let kernel (d : Device.t) (k : Kernel.t) : Perf_model.estimate * extras =
  match
    Perf_model.blocks_per_sm_limit d ~block_dim:k.Kernel.block_dim
      ~smem:(Kernel.shared_bytes k) ~regs:(Kernel.regs_per_thread k)
  with
  | Error note -> (Perf_model.infeasible note, no_extras)
  | Ok blocks_per_sm ->
    Metrics.incr m_estimates;
    let a = Access.analyze ~line:d.cache_line_bytes k in
    Metrics.add m_traced a.Access.n_traced;
    let stages = Pipeline.effective_stages k in
    let warps_per_block = Kernel.num_warps_per_block k in
    let concurrent = d.num_sms * blocks_per_sm in
    let active_blocks = min k.Kernel.grid_dim concurrent in
    let t = Traffic.analyze ~window:(min d.l2_reuse_window active_blocks) k in
    let c = t.Traffic.counts in
    let waves = ceil_div k.Kernel.grid_dim concurrent in
    let blocks_on_sm = max 1 (ceil_div active_blocks d.num_sms) in
    let resident_warps = warps_per_block * blocks_on_sm in
    let occupancy =
      Float.min 1.
        (float_of_int (k.Kernel.block_dim * blocks_per_sm)
        /. float_of_int d.max_threads_per_sm)
    in
    (* Cache replay: the sampled warp's stream against its slice of L1
       (contended by every co-resident warp) and of the device-wide L2. *)
    let line = d.cache_line_bytes in
    let l1_geom =
      {
        Cache_model.size = max line (d.l1_size / max 1 resident_warps);
        line;
        ways = d.l1_ways;
      }
    in
    let s1, miss1 = Cache_model.simulate_through l1_geom a.Access.stream in
    let l2_geom =
      {
        Cache_model.size =
          max line (d.l2_size / max 1 (active_blocks * warps_per_block));
        line;
        ways = d.l2_ways;
      }
    in
    let s2 = Cache_model.simulate l2_geom miss1 in
    let h1 = Cache_model.hit_rate s1 in
    let h2_intra = Cache_model.hit_rate s2 in
    (* Lines fetched once and shared by the L2 reuse window of
       consecutively launched blocks (what swizzle improves) are L2 hits
       for every block after the first. *)
    let reuse = if c.Traffic.global_load_bytes > 0. then t.Traffic.reuse else 1. in
    let cross = 1. -. (1. /. Float.max 1. reuse) in
    let h2 = h2_intra +. ((1. -. h2_intra) *. cross) in
    let dram_frac = (1. -. h1) *. (1. -. h2) in
    let l2_frac = (1. -. h1) *. h2 in
    (* Round structure and per-round work (per warp). *)
    let iters = max 1 (int_of_float (Float.round a.Access.main_trips)) in
    let fiters = float_of_int iters in
    let slots = float_of_int Warp_sched.compute_slots in
    let fp32_per_slot =
      Device.fp32_flops d /. (float_of_int d.num_sms *. d.sm_clock_hz) /. slots
    in
    let tensor_per_slot =
      Device.tensor_flops d
      /. (float_of_int d.num_sms *. d.sm_clock_hz)
      /. slots
    in
    let flops_warp = c.Traffic.flops *. 32. in
    let mma_warp = c.Traffic.mma_flops in
    let compute_cycles_total =
      (flops_warp /. Float.max fp32_per_slot 1e-9)
      +. (mma_warp /. Float.max tensor_per_slot 1e-9)
    in
    let sync_cycles_total =
      c.Traffic.syncs *. d.sync_latency *. d.sm_clock_hz
    in
    (* Memory pipeline: bandwidth shared by the SMs that actually have
       blocks, floored at the analytic model's per-SM bandwidth cap (an
       SM's own LSU/L2 port limit). *)
    let active_sms = max 1 (min d.num_sms active_blocks) in
    let dram_service =
      Float.max
        (float_of_int line *. d.sm_clock_hz *. float_of_int active_sms
        /. d.mem_bandwidth)
        (float_of_int line *. d.sm_clock_hz *. float_of_int d.num_sms
        /. (Perf_model.per_sm_bandwidth_cap *. d.mem_bandwidth))
    in
    let work =
      {
        Warp_sched.iters;
        mem_txn_per_iter = a.Access.load_txn_main /. fiters;
        dram_frac;
        l2_frac;
        tail_mem_txn = a.Access.load_txn_other +. a.Access.store_txn;
        smem_cycles_per_iter =
          (a.Access.shared_cycles_main /. fiters)
          +. (if a.Access.shared_cycles_main > 0. then
                float_of_int d.smem_latency_cycles
              else 0.);
        compute_cycles_per_iter = compute_cycles_total /. fiters;
        tail_compute_cycles = a.Access.shared_cycles_other;
        sync_cycles_per_iter = sync_cycles_total /. fiters;
        stages;
        warps = resident_warps;
        mem_issue_cycles = 2.;
        dram_service_cycles = dram_service;
        l2_service_cycles = dram_service /. 3.;
        l1_latency = float_of_int d.l1_latency_cycles;
        l2_latency = float_of_int d.l2_latency_cycles;
        dram_latency = float_of_int d.dram_latency_cycles;
      }
    in
    let r = Warp_sched.simulate work in
    let wave_time = r.Warp_sched.cycles /. d.sm_clock_hz in
    let latency =
      d.kernel_launch_overhead +. (float_of_int waves *. wave_time)
    in
    let mem_time = r.Warp_sched.mem_busy /. d.sm_clock_hz in
    let compute_time = r.Warp_sched.compute_busy /. slots /. d.sm_clock_hz in
    let note =
      if d.kernel_launch_overhead >= float_of_int waves *. wave_time then
        "launch-bound"
      else if mem_time >= compute_time then "memory-bound"
      else "compute-bound"
    in
    ( {
        Perf_model.latency;
        mem_time;
        compute_time;
        waves;
        blocks_per_sm;
        occupancy;
        pipelined = stages >= 2;
        feasible = true;
        note;
      },
      {
        txn_per_access = a.Access.txn_per_access;
        conflict_factor = a.Access.conflict_factor;
        l1_hit = h1;
        l2_hit = h2;
        n_static = a.Access.n_static;
        n_traced = a.Access.n_traced;
        sim_cycles = r.Warp_sched.cycles;
        iters;
      } )

let estimate d k = fst (kernel d k)

let latency d k =
  let e = estimate d k in
  if e.Perf_model.feasible then e.Perf_model.latency else infinity

let install () = Perf_model.register_cycle_model estimate

(* Register at link time: any program linking hidet_cycle (hidet_sched
   does) gets Perf_model.estimate ~fidelity:`Cycle routed here. *)
let () = install ()
