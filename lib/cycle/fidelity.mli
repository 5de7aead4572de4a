(** Cycle-approximate fidelity mode: the top-level estimator.

    Combines the {!Access} coalescing/bank-conflict analysis, the
    {!Cache_model} L1/L2 replay of the sampled address stream and the
    {!Warp_sched} latency-hiding simulation into a
    {!Hidet_gpu.Perf_model.estimate}. [Hidet_sched.Compiled.latency]
    selects it under [`Cycle]. *)

type extras = {
  txn_per_access : float;  (** mean coalesced transactions per warp access *)
  conflict_factor : float;  (** weighted mean bank-conflict degree *)
  l1_hit : float;
  l2_hit : float;  (** includes cross-block reuse of the L2 window *)
}

val kernel :
  Hidet_gpu.Device.t -> Hidet_ir.Kernel.t ->
  Hidet_gpu.Perf_model.estimate * extras

val estimate :
  Hidet_gpu.Device.t -> Hidet_ir.Kernel.t -> Hidet_gpu.Perf_model.estimate

val lower_bound : Hidet_gpu.Device.t -> Hidet_ir.Kernel.t -> float
(** A floor on {!estimate}'s latency ([infinity] when infeasible), without
    the access analysis, cache replay or warp simulation: launch overhead
    plus waves times the larger of the resident warps' compute and barrier
    cycles spread over {!Warp_sched.compute_slots} and one warp's own. It
    shares {!kernel}'s occupancy, waves, resident warps and per-warp
    compute cycles, and keeps a relative slack of 1e-9 for the rounding of
    the simulation's per-round sums. *)
