(** The common interface of all inference engines compared in the paper's
    evaluation: Hidet itself, the loop-oriented tuners (AutoTVM-like,
    Ansor-like) and the kernel-library engines (PyTorch-, ONNX-Runtime- and
    TensorRT-like). *)

(** Qualitative capability levels, for the Table 1 reproduction. *)
type capability = Low | Medium | High

type caps = {
  graph_opt : capability;
  kernel_opt : capability;
  tuning_time : capability;  (** High = little tuning time needed *)
  engineering_effort : capability;  (** High = little effort per new op *)
}

type result = {
  engine : string;
  model : string;
  latency : float;  (** end-to-end seconds per the performance model *)
  tuning_cost : float;
      (** simulated tuning seconds of {e fresh} trials this compilation
          actually ran (paper Fig. 14 axis) *)
  cached_tuning_cost : float;
      (** simulated tuning seconds served from the schedule cache —
          cost this compilation would have paid without warm-starting *)
  tuning_wall : float;  (** actual seconds spent inside the tuners here *)
  compile_wall : float;  (** actual seconds the whole compilation took *)
  kernel_count : int;
  plan : Plan.t;  (** the executable plan; its graph is the optimized one *)
}

val total_tuning_cost : result -> float
(** [tuning_cost + cached_tuning_cost]: the from-scratch tuning cost of the
    model, independent of the schedule cache's warm state — the Fig. 14
    quantity. *)

module type S = sig
  val name : string
  val caps : caps
  val compile : Hidet_gpu.Device.t -> Hidet_graph.Graph.t -> result
end

(** {1 The compile pipeline}

    Every engine compiles the same way (the paper's Fig. 10): optionally
    lower convolutions to implicit GEMM, optimize the graph, partition and
    compile the groups ({!Group_compiler.compile_graph}), estimate the
    plan. Engines differ only in what they hand to {!compile}: the anchor
    scheduler and fusion predicates of their {!Group_compiler.config},
    whether convolutions are lowered, and their tuning totals. *)

type tuning = {
  fresh : float;  (** simulated seconds of fresh trials ([tuning_cost]) *)
  cached : float;  (** simulated seconds served by a cache *)
  wall : float;  (** seconds spent inside the tuners *)
}

val compile :
  engine:string ->
  lower_convs:bool ->
  fidelity:Hidet_gpu.Perf_model.fidelity ->
  Hidet_gpu.Device.t ->
  Hidet_graph.Graph.t ->
  Group_compiler.config ->
  (unit -> tuning) ->
  result
(** Compile [g] for [engine] under one [compile_plan] span (attributes
    [engine], [model], [device], then [kernels] and [latency_us]) holding
    the [lower_conv_to_gemm] (when [lower_convs]) and [graph_optimize]
    spans, {!Group_compiler.compile_graph}'s spans and the
    [estimate_latency] span around {!Plan.latency} under [fidelity]. The
    tuning totals are read once the plan is built. *)

val capability_dots : capability -> string
(** Render as the paper's Table 1 dots. *)
