(** Execution plans: the artifact every engine produces for a graph.

    A plan is an ordered list of steps; each step launches one compiled
    operator (one or more kernels) whose arguments are graph node values —
    inputs, constants, or outputs of earlier steps. Plans support latency
    accounting (analytic model) and functional execution (interpreter). *)

type step = {
  compiled : Hidet_sched.Compiled.t;
  args : int list;  (** graph node ids bound to [compiled.ins], in order *)
  out_node : int;  (** graph node whose value this step produces *)
}

type t = { graph : Hidet_graph.Graph.t; steps : step list }

val latency :
  ?fidelity:Hidet_gpu.Perf_model.fidelity -> Hidet_gpu.Device.t -> t -> float
(** Sum of per-step estimates (serial kernel launches, as in single-stream
    inference) under [?fidelity] (default [`Analytic]); [infinity] if any
    kernel is infeasible. *)

val kernel_count : t -> int

val prepare : t -> unit
(** Eagerly force every constant of the plan's graph. Constant forcing is
    serialized through a process-wide lock (OCaml's [Lazy] is not
    domain-safe, and weight thunks are shared across the batch-bucket
    variants of a model), so a prepared plan can be {!run} concurrently
    from many domains without ever contending on that lock. Called by the
    serving registry at model-load time; optional elsewhere — [run] forces
    on demand under the same lock. *)

val run :
  ?around:(int -> step -> (unit -> Hidet_tensor.Tensor.t) -> Hidet_tensor.Tensor.t) ->
  ?backend:Hidet_sched.Compiled.backend ->
  t ->
  (int * Hidet_tensor.Tensor.t) list ->
  Hidet_tensor.Tensor.t list
(** Execute on the simulator: bind graph inputs, force constants on
    demand (domain-safely, see {!prepare}), run every step, return the
    graph outputs. Intended for correctness tests on small graphs.
    [around step_index step exec] wraps each step's execution (default:
    just calls [exec]); the profiler uses it to capture per-step wall
    time and simulator counters. [?backend] selects the simulator
    execution backend per call (default [`Closure]). *)

val run1 :
  ?around:(int -> step -> (unit -> Hidet_tensor.Tensor.t) -> Hidet_tensor.Tensor.t) ->
  ?backend:Hidet_sched.Compiled.backend ->
  t ->
  Hidet_tensor.Tensor.t list ->
  Hidet_tensor.Tensor.t

val cuda_source : t -> string
(** Concatenated CUDA C for every kernel in the plan. *)

val pp : Format.formatter -> t -> unit
