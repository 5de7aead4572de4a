(** Tuning over the hardware-centric schedule space.

    The paper's exhaustive mode (180 schedules, "simply enumerating all
    schedules ... can be done within one minute"): every candidate is
    either measured or proved unable to win, and the best feasible one
    wins. Candidates are compiled and measured in parallel across OCaml
    domains (the paper's parallel candidate compilation), with a
    deterministic merge so the parallel and sequential paths always select
    the identical config.

    With a [?lower_bound], a floor on each candidate's latency under the
    chosen fidelity, the search is branch-and-bound: it skips ([pruned]) every
    candidate the bound proves cannot win, without instantiating it, and
    returns the same winner with the same stats apart from [trials] and
    [pruned].

    Tuning cost accounting: real measurement on the paper's platform costs
    roughly [seconds_per_trial] per candidate (compile + benchmark); we
    report [(trials + pruned) * seconds_per_trial] as the simulated tuning
    cost used in the Fig. 14 reproduction, the cost of the paper's
    exhaustive tuner, which measures what the bound skips — configs the
    template rejects outright ([Invalid_argument]) never reach the device
    and are reported separately as [rejected]. *)

type stats = {
  trials : int;  (** candidates compiled and measured *)
  rejected : int;  (** candidates the template refused; never measured *)
  pruned : int;  (** candidates the lower bound ruled out; never instantiated *)
  best_index : int;  (** index of the winner in the candidate array *)
  simulated_seconds : float;  (** (trials + pruned) x seconds_per_trial *)
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
  ?fidelity:Hidet_gpu.Perf_model.fidelity ->
  ?lower_bound:('a array -> float array) ->
  device:Hidet_gpu.Device.t ->
  candidates:'a array ->
  compile:('a -> Compiled.t) ->
  unit ->
  ('a * Compiled.t * stats) option
(** Generic tuner; [None] if no candidate is feasible. Ties on latency
    break toward the lowest candidate index. [?fidelity] selects the
    latency model each measurement uses (default [`Analytic]). The tuner
    reads [candidates] in place, without a copy, and never writes it; the
    caller must not write it during the call either.

    [?lower_bound] is applied to [candidates] itself and
    returns one floor per candidate on its latency under [?fidelity]
    ({!Matmul_template.lower_bound} gives them for [`Analytic],
    {!cycle_lower_bound} for [`Cycle]); it is called once, in the
    calling domain, and [Invalid_argument] is raised if it returns
    another length. Candidates are then visited in ascending (bound,
    index) order, 1, 2, 4 and 8 in the first four steps and 16 in each
    later one, and one whose
    bound is strictly above the best latency measured before its step
    began is skipped: its latency is above the best, so the winner, its
    tie-break and [best_latency] are those of the full enumeration. The
    step sizes are fixed, so every worker count skips the same
    candidates. With no feasible candidate nothing is skipped.

    Only the order that can matter is computed. Step 0 is the argmin of
    (bound, index), found in one scan. If its latency [t0] is finite,
    every candidate whose bound is above [t0] would be skipped in any
    later step, since the thresholds only fall: one pass skips them all
    at once (their tuning-log records come right after step 0's, in index
    order), and only the survivors, bound at most [t0], are sorted. They
    are a prefix of the full order, so every later step visits and
    measures what the full sort would have. If [t0] is infinite (the
    argmin was rejected or infeasible), everything is sorted.

    [~parallel:false] forces the sequential path (same result, one
    domain); [?workers] overrides
    {!Hidet_parallel.Parallel.default_workers}. The returned [Compiled.t]
    is the one the winning trial measured, built in whichever domain ran
    it; [compile] is not called again. That is safe
    because nothing in a kernel depends on its domain: the only
    process-global state it carries is [Var] and [Buffer] ids, which CUDA
    codegen and the native backend rename per kernel in binding order, so
    the kernel's output, latency and generated source are those of a fresh
    [compile] of the winner.

    Observability: every call maintains the ["tuner.trials"],
    ["tuner.rejected"] and ["tuner.pruned"] counters (incremented inside
    the worker domains). When tracing ({!Hidet_obs.Trace.enabled}) is on,
    the call is wrapped in a ["tune"] span (attributed with the three
    counts, [bound_us], the wall time spent on ordering — bounds, argmin,
    the cut and the survivors' sort — and [survivors], the candidates
    left to visit after step 0: all but one without a bound) and
    each instantiated candidate gets a ["trial"] span, opened in the
    domain that does the work before the candidate is instantiated and
    closed after its estimate. It carries the workload signature [?key],
    the candidate index, the printable config from [?show], the outcome
    (measured / infeasible / rejected), the estimated latency, and the
    time the two phases took ([instantiate_us], [estimate_us]). When the
    tuning log ({!Hidet_obs.Tuning_log.enabled}) is on, each candidate,
    skipped ones included, also gets a record carrying [?engine] (default
    ["hidet"]) and the same fields. Records are emitted from the driver in
    visiting order, so the logged trial sequence is deterministic even
    across domains. Whether a call is traced is decided once per call;
    with tracing off, the per-candidate path is a bare compile+measure. *)

val cycle_lower_bound :
  Hidet_gpu.Device.t -> compile:('a -> Compiled.t) -> 'a array -> float array
(** A [?lower_bound] for [~fidelity:`Cycle]: for each candidate, the sum of
    {!Hidet_cycle.Fidelity.lower_bound} over the kernels of [compile cand],
    a floor on its cycle-model {!Compiled.latency}. It instantiates every
    candidate; [0.] for one [compile] rejects ([Invalid_argument]), so the
    tuner still sees the rejection. *)

val tune_matmul :
  device:Hidet_gpu.Device.t ->
  ?batch:int ->
  ?a_batched:bool ->
  ?b_batched:bool ->
  ?parallel:bool ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  (Matmul_template.config * Compiled.t * stats) option
(** Tune over {!Space.matmul_with_split_k}. *)
