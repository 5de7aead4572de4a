(** Per-kernel profiler report for a compiled plan.

    One row per kernel launch, nsight-compute style, derived entirely from
    the performance model ({!Hidet_gpu.Perf_model}, analytic or cycle
    fidelity) and the structural traffic counts ({!Hidet_gpu.Traffic}) — no
    execution involved, so profiling a plan is instant and deterministic.
    Under [`Cycle] fidelity each row additionally carries the cycle model's
    {!Hidet_cycle.Fidelity.extras} (coalescing, bank conflicts, cache hit
    rates).

    [tail_waste] is the wave-quantization loss: the fraction of launched
    block slots the final, partially filled wave leaves idle
    ([1 - grid / (waves * num_sms * blocks_per_sm)]). It is the whole-kernel
    cousin of the partial-tile waste the hardware-centric schedule space
    trades against — a grid that does not divide the machine pays for the
    remainder just like a tile that does not divide the tensor. *)

type row = {
  step : int;  (** plan step index this kernel belongs to *)
  op : string;  (** compiled operator name (one op may launch >1 kernel) *)
  kernel : string;
  grid_dim : int;
  block_dim : int;
  latency : float;  (** seconds, incl. launch overhead *)
  mem_time : float;  (** per-wave memory component, seconds *)
  compute_time : float;  (** per-wave compute component, seconds *)
  pipelined : bool;
  occupancy : float;  (** 0..1 *)
  waves : int;
  blocks_per_sm : int;
  tail_waste : float;  (** 0..1, idle fraction of launched block slots *)
  smem_bytes : int;  (** static shared memory per block *)
  regs_per_thread : int;
  global_bytes : float;  (** total global load+store bytes, whole grid *)
  flops : float;  (** total scalar FLOPs, whole grid *)
  note : string;  (** binding bottleneck, or the infeasibility reason *)
  cycle : Hidet_cycle.Fidelity.extras option;
      (** [Some] iff estimated under [`Cycle]; the analytic table stays
          byte-identical *)
}

val report :
  ?fidelity:Hidet_gpu.Perf_model.fidelity ->
  Hidet_gpu.Device.t -> Plan.t -> row list
(** One row per kernel, in launch order; [?fidelity] defaults to
    [`Analytic]. *)

val pp_rows : Format.formatter -> row list -> unit
(** The table, with a totals line. Rows carrying cycle extras print them
    (txn/acc, bank, L1%, L2%) and switch the header to the wider cycle
    layout. *)

val pp :
  ?fidelity:Hidet_gpu.Perf_model.fidelity ->
  Hidet_gpu.Device.t -> Format.formatter -> Plan.t -> unit
(** [pp device fmt plan = pp_rows fmt (report device plan)]. *)

(** {1 Measured execution}

    Unlike {!report}, these rows come from {e actually executing} the plan
    on a simulator backend: per-step wall time plus the [sim.threads] /
    [sim.statements] observability counter deltas. *)

type measured_row = {
  m_step : int;
  m_op : string;
  m_wall : float;  (** simulator wall seconds for this step *)
  m_threads : int;  (** GPU threads simulated *)
  m_statements : int;  (** IR statements executed across all threads *)
  m_compile_us : int;
      (** backend compile wall attributed to this step: the closure
          backend's compile, plus — on the native backend — codegen,
          [ocamlopt] and [Dynlink]. Only a kernel's first launch on a
          backend compiles; later launches reuse its launch handle and
          attribute 0 *)
}

val measure :
  ?backend:Hidet_sched.Compiled.backend ->
  Plan.t ->
  Hidet_tensor.Tensor.t list ->
  measured_row list
(** Run the plan once on [inputs] (bound positionally to the graph
    inputs), one row per step in launch order. [?backend] selects the
    execution backend (default [`Closure]). *)

val pp_measured : Format.formatter -> measured_row list -> unit
(** The table, with statements/sec throughput and a totals line. *)
