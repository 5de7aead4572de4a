(** Input-centric schedule spaces and tuners: the AutoTVM-like and
    Ansor-like baselines (paper §§2.3, 3.3, 6).

    Both search the loop-oriented space of {!Loop_sched}, where every tile
    factor must divide the corresponding loop extent. The modeled template
    splits each output dimension into 4 ordered factors (grid / virtual
    thread / thread / register — TVM's conv2d and dense templates) and the
    reduction into 2, so the space size is a product of ordered-factorization
    counts — 10^4 to 10^8 for ResNet-50 convolutions (paper Fig. 7), and
    nearly empty for prime extents (Fig. 16).

    AutoTVM-like tunes by random search with a fixed budget (1000 trials);
    Ansor-like by evolutionary search (800 trials), which finds better
    optima in the same space. Neither space can express double buffering.

    Measurement runs through the same parallel path as Hidet's tuner
    (pre-sampled batches fanned across domains — AutoTVM's measurement
    workers): only wall clock improves; the *simulated* sequential cost
    ([trials x seconds_per_trial], the Fig. 14 axis) and the selected
    schedule are identical to the sequential implementation's. *)

type strategy = Random_search | Evolutionary

val seconds_per_trial : float

(** {1 Space cardinality (Fig. 7)} *)

val ordered_factorizations : int -> int -> float
(** [ordered_factorizations n j]: number of ways to write [n] as an ordered
    product of [j] positive factors. *)

val matmul_space_size : m:int -> n:int -> k:int -> float
val conv_space_size : x_shape:int list -> w_shape:int list -> stride:int -> pad_h:int -> pad_w:int -> float

(** {1 Samplers} *)

val random_factorization : Random.State.t -> int -> int -> int array
(** Random ordered factorization of [n] into [j] factors (product = [n]). *)

val sample_gemm_sched :
  Random.State.t -> m:int -> n:int -> k:int -> Loop_sched.sched
(** A uniform-ish random point of the modeled space, mapped onto the
    realizable knobs; may fail [Loop_sched.check] (invalid candidates cost a
    trial, as on real hardware). *)

val sample_dw_sched : Random.State.t -> p:int -> Loop_sched.dw_sched

(** {1 Tuners} *)

type tuned = {
  compiled : Hidet_sched.Compiled.t;
  latency : float;
  trials : int;
  simulated_seconds : float;
      (** [trials x seconds_per_trial]: the sequential measure-one-at-a-time
          cost model, deliberately unchanged by parallel measurement *)
  wall_seconds : float;  (** actual tuner time on this machine *)
}

val tune_gemm :
  ?key:string ->
  strategy:strategy ->
  trials:int ->
  device:Hidet_gpu.Device.t ->
  seed:int ->
  m:int ->
  n:int ->
  k:int ->
  compile:(Loop_sched.sched -> Hidet_sched.Compiled.t) ->
  unit ->
  tuned option
(** [None] when no sampled candidate is feasible (e.g. prime extents).
    [?key] labels the workload in trace spans and tuning-log records; the
    engine label is derived from [strategy] ("autotvm" / "ansor"). *)

val tune_depthwise :
  ?key:string ->
  strategy:strategy ->
  trials:int ->
  device:Hidet_gpu.Device.t ->
  seed:int ->
  p:int ->
  compile:(Loop_sched.dw_sched -> Hidet_sched.Compiled.t) ->
  unit ->
  tuned option

(** {1 Engines} *)

module Autotvm : Hidet_runtime.Engine.S
module Ansor : Hidet_runtime.Engine.S

val compile_with :
  name:string ->
  strategy:strategy ->
  trials:int ->
  Hidet_gpu.Device.t ->
  Hidet_graph.Graph.t ->
  Hidet_runtime.Engine.result
(** Shared engine implementation (exposed for tests and ablations). *)
