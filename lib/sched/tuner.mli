(** Tuning over the hardware-centric schedule space.

    The default is the paper's exhaustive mode (180 schedules, "simply
    enumerating all schedules ... can be done within one minute"): every
    candidate is compiled and measured; the best feasible one wins. The
    widened space (swizzle, split-k, deep pipelines) also supports
    {!Search.Guided}, which measures a bounded fraction of the candidates
    via seeded evolutionary search. In both modes candidates are compiled
    and measured in parallel across OCaml domains (the paper's parallel
    candidate compilation), with a deterministic merge so the parallel and
    sequential paths always select the identical config — for guided runs,
    the whole trial sequence is a function of the search seed alone.

    Tuning cost accounting: real measurement on the paper's platform costs
    roughly [seconds_per_trial] per candidate (compile + benchmark); we
    report [trials * seconds_per_trial] as the simulated tuning cost used in
    the Fig. 14 reproduction, counting only candidates that were actually
    measured — configs the template rejects outright ([Invalid_argument])
    never reach the device and are reported separately as [rejected]. *)

type stats = {
  trials : int;  (** candidates compiled and measured *)
  rejected : int;  (** candidates the template refused; never measured *)
  best_index : int;  (** index of the winner in the candidate list *)
  simulated_seconds : float;  (** trials x seconds_per_trial *)
  wall_seconds : float;  (** actual enumeration time on this machine *)
  best_latency : float;  (** seconds, per the performance model *)
  workers : int;  (** domains that ran the enumeration *)
}

val seconds_per_trial : float
(** 1.5 s: compile + on-device measurement of one schedule candidate. *)

val tune :
  ?seconds_per_trial:float ->
  ?parallel:bool ->
  ?workers:int ->
  ?engine:string ->
  ?key:string ->
  ?show:('a -> string) ->
  ?search:'a Search.t ->
  ?fidelity:Hidet_gpu.Perf_model.fidelity ->
  device:Hidet_gpu.Device.t ->
  candidates:'a list ->
  compile:('a -> Compiled.t) ->
  unit ->
  ('a * Compiled.t * stats) option
(** Generic tuner; [None] if no candidate is feasible. Ties on latency
    break toward the lowest candidate index (exhaustive) or the earliest
    proposal (guided). [?search] (default {!Search.Exhaustive}) selects
    the strategy; a guided search measures at most its budget fraction of
    [candidates] and reports only those measurements in [stats].
    [?fidelity] selects the latency model each measurement uses
    (default [`Analytic]).
    [~parallel:false] forces the sequential path (same result, one
    domain); [?workers] overrides {!Parallel.default_workers}. The winning
    candidate is re-instantiated in the calling domain, so the returned
    [Compiled.t] does not depend on domain scheduling.

    Observability: every call maintains the ["tuner.trials"] and
    ["tuner.rejected"] counters (incremented inside the worker domains).
    When tracing ({!Hidet_obs.Trace.enabled}) is on, the call is wrapped in
    a ["tune"] span (attributed with the search mode) and each candidate
    gets a ["trial"] span, opened in the domain that does the work before
    the candidate is instantiated and closed after its estimate. It
    carries the workload signature [?key], the candidate index, the
    printable config from [?show], the outcome (measured / infeasible /
    rejected), the estimated latency, and the time the two phases took
    ([instantiate_us], [estimate_us]). When the tuning log
    ({!Hidet_obs.Tuning_log.enabled}) is on, each candidate also gets a
    record carrying [?engine] (default ["hidet"]), the same fields and the
    proposer (exhaustive / seed / mutation / crossover). Guided runs emit
    records in batch order from the driver, so the logged trial sequence
    is deterministic even across domains. Whether a call is observed is
    decided once per call; with both disabled, the per-candidate path is
    a bare compile+measure. *)

val tune_matmul :
  device:Hidet_gpu.Device.t ->
  ?batch:int ->
  ?a_batched:bool ->
  ?b_batched:bool ->
  ?parallel:bool ->
  ?search:Matmul_template.config Search.t ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  (Matmul_template.config * Compiled.t * stats) option
(** Tune over {!Space.matmul_with_split_k}. *)
