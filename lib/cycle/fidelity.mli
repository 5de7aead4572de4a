(** Cycle-approximate fidelity mode: the top-level estimator.

    Combines the {!Access} coalescing/bank-conflict analysis, the
    {!Cache_model} L1/L2 replay of the sampled address stream and the
    {!Warp_sched} latency-hiding simulation into a
    {!Hidet_gpu.Perf_model.estimate}, and registers itself as
    [Perf_model]'s cycle model at link time. *)

type extras = {
  txn_per_access : float;  (** mean coalesced transactions per warp access *)
  conflict_factor : float;  (** weighted mean bank-conflict degree *)
  l1_hit : float;
  l2_hit : float;  (** includes cross-block reuse of the L2 window *)
  n_static : int;  (** sites proven affine and derived statically *)
  n_traced : int;  (** sites that fell back to the sampled trace *)
  sim_cycles : float;  (** modeled cycles for one wave's resident warps *)
  iters : int;  (** main-loop rounds per warp *)
}

val kernel :
  Hidet_gpu.Device.t -> Hidet_ir.Kernel.t ->
  Hidet_gpu.Perf_model.estimate * extras

val estimate :
  Hidet_gpu.Device.t -> Hidet_ir.Kernel.t -> Hidet_gpu.Perf_model.estimate

val latency : Hidet_gpu.Device.t -> Hidet_ir.Kernel.t -> float
(** [estimate]'s latency, or [infinity] when infeasible. *)

val install : unit -> unit
(** Register {!estimate} as [Perf_model]'s cycle model. Called at link
    time by this module's initializer; safe to call again. *)
