module Trace = Hidet_obs.Trace
module Metrics = Hidet_obs.Metrics
module Tuning_log = Hidet_obs.Tuning_log

type stats = {
  trials : int;
  rejected : int;
  pruned : int;
  best_index : int;
  simulated_seconds : float;
  wall_seconds : float;
  best_latency : float;
  workers : int;
}

let seconds_per_trial = 1.5

(* Candidates per branch-and-bound step. A constant, so which candidates
   are skipped never depends on the worker count. *)
let chunk_size = 16

(* Trials, rejections and skips are counted where they happen — inside the
   worker domains — so the observability tests can check that parallel
   counts sum to the sequential run's totals. *)
let m_trials = Metrics.counter "tuner.trials"
let m_rejected = Metrics.counter "tuner.rejected"
let m_pruned = Metrics.counter "tuner.pruned"

(* Outcome of one candidate. [Rejected]: the template refused the config
   ([Invalid_argument]); nothing was ever measured, so (per the cost
   accounting) no simulated seconds accrue. [Pruned]: its lower bound
   proved it cannot win, so it was never instantiated; it is billed as the
   measurement the paper's exhaustive tuner would have made. [Measured
   lat]: compiled and run through the latency model ([infinity] =
   infeasible on this device, still a paid measurement). *)
type outcome = Rejected | Pruned | Measured of float

let latency_of = function Measured lat -> lat | Rejected | Pruned -> infinity

let log_outcome = function
  | Rejected -> Tuning_log.Rejected
  | Pruned -> Tuning_log.Pruned
  | Measured lat when lat < infinity -> Tuning_log.Measured
  | Measured _ -> Tuning_log.Infeasible

let log_trial ~engine ~key ~show ~index ~cand ~proposer outcome =
  if Tuning_log.enabled () then
    Tuning_log.record
      {
        Tuning_log.engine;
        workload = key;
        index;
        config = show cand;
        outcome = log_outcome outcome;
        latency = latency_of outcome;
        proposer;
      }

(* A trial span covers one candidate's instantiation and estimate, in the
   domain that does the work. *)
let traced_trial ~key ~show ~index ~cand ~instantiate ~estimate =
  let csp = Trace.enter "trial" in
  let t0 = Unix.gettimeofday () in
  let compiled = instantiate cand in
  let t1 = Unix.gettimeofday () in
  let outcome = match compiled with None -> Rejected | Some c -> estimate c in
  let t2 = Unix.gettimeofday () in
  Trace.add csp "workload" key;
  Trace.add csp "index" (string_of_int index);
  Trace.add csp "config" (show cand);
  Trace.add csp "outcome" (Tuning_log.outcome_to_string (log_outcome outcome));
  (match outcome with
  | Measured lat when lat < infinity ->
    Trace.add csp "latency_us" (Printf.sprintf "%.3f" (lat *. 1e6))
  | _ -> ());
  Trace.add csp "instantiate_us" (Printf.sprintf "%.1f" ((t1 -. t0) *. 1e6));
  Trace.add csp "estimate_us" (Printf.sprintf "%.1f" ((t2 -. t1) *. 1e6));
  Trace.exit csp;
  outcome

let tune ?(seconds_per_trial = seconds_per_trial) ?(parallel = true)
    ?workers ?(engine = "hidet") ?(key = "") ?(show = fun _ -> "")
    ?(search = Search.Exhaustive) ?fidelity ?lower_bound ~device ~candidates
    ~compile () =
  let t0 = Unix.gettimeofday () in
  let cands = Array.of_list candidates in
  let w =
    if not parallel then 1
    else max 1 (Option.value workers ~default:(Parallel.default_workers ()))
  in
  let sp =
    Trace.enter
      ~attrs:
        [
          ("engine", engine);
          ("workload", key);
          ("search", Search.name search);
          ("candidates", string_of_int (Array.length cands));
        ]
      "tune"
  in
  let instantiate cand =
    match compile cand with
    | exception Invalid_argument _ ->
      Metrics.incr m_rejected;
      None
    | compiled -> Some compiled
  in
  let estimate compiled =
    Metrics.incr m_trials;
    Measured (Compiled.latency ?fidelity device compiled)
  in
  (* Whether each candidate gets its own trace span is decided once per
     tune call, so the untraced path stays a bare compile+measure. *)
  let measure =
    if Trace.enabled () then fun i ->
      traced_trial ~key ~show ~index:i ~cand:cands.(i) ~instantiate ~estimate
    else fun i ->
      match instantiate cands.(i) with None -> Rejected | Some c -> estimate c
  in
  let trials = ref 0 and rejected = ref 0 and pruned = ref 0 in
  let best = ref None in
  (* Outcomes are merged in the driver, in a fixed order, and a latency tie
     keeps the best so far at index [j] over [i] when [keep_on_tie j i], so
     the parallel and sequential paths always select the same config. *)
  let merge ~keep_on_tie i = function
    | Rejected -> incr rejected
    | Pruned -> incr pruned
    | Measured lat ->
      incr trials;
      if lat < infinity then
        match !best with
        | Some (b, j) when b < lat || (b = lat && keep_on_tie j i) -> ()
        | _ -> best := Some (lat, i)
  in
  (match Search.start search ~candidates:cands with
  | None ->
    (* Exhaustive: ties break toward the lowest index. Without a bound
       every candidate is measured, in one step. With one (it bounds the
       analytic latency only), candidates are visited in ascending (bound,
       index) order, [chunk_size] per step: one whose bound is strictly
       above the best latency measured before its step began has a latency
       above the final best, so it can neither win nor tie and is skipped
       uninstantiated. *)
    let n = Array.length cands in
    let order = Array.init n Fun.id in
    let step, skip =
      match (lower_bound, fidelity) with
      | Some lb, (None | Some `Analytic) ->
        let bound = Array.map lb cands in
        Array.stable_sort (fun i j -> Float.compare bound.(i) bound.(j)) order;
        (chunk_size, fun threshold i -> bound.(i) > threshold)
      | _ -> (max 1 n, fun _ _ -> false)
    in
    let pos = ref 0 in
    while !pos < n do
      let visit = Array.sub order !pos (min step (n - !pos)) in
      let threshold = match !best with Some (b, _) -> b | None -> infinity in
      let prune_or_measure i =
        if skip threshold i then begin
          Metrics.incr m_pruned;
          Pruned
        end
        else measure i
      in
      (* Bounds ascend, so a step whose first candidate is skipped is
         skipped whole: no domains to start. *)
      let outcomes =
        if skip threshold visit.(0) then Array.map prune_or_measure visit
        else Parallel.map ~workers:w prune_or_measure visit
      in
      Array.iteri
        (fun vi outcome ->
          let i = visit.(vi) in
          merge ~keep_on_tie:( < ) i outcome;
          log_trial ~engine ~key ~show ~index:i ~cand:cands.(i)
            ~proposer:Tuning_log.Exhaustive outcome)
        outcomes;
      pos := !pos + Array.length visit
    done
  | Some run ->
    (* Guided: the search proposes generations of candidate indices; each
       generation is measured (possibly across domains, each trial span in
       the domain that measures it) and merged — and observed and logged —
       in batch order, so the whole trial sequence is a function of the
       seed alone. Ties break toward the earliest proposal. *)
    let finished = ref false in
    while not !finished do
      match Search.next_batch run with
      | [] -> finished := true
      | batch ->
        let barr = Array.of_list batch in
        let outcomes =
          Parallel.map ~workers:w (fun (i, _) -> measure i) barr
        in
        Array.iteri
          (fun bi outcome ->
            let i, proposer = barr.(bi) in
            merge ~keep_on_tie:(fun _ _ -> true) i outcome;
            Search.observe run ~index:i ~latency:(latency_of outcome);
            log_trial ~engine ~key ~show ~index:i ~cand:cands.(i) ~proposer
              outcome)
          outcomes
    done);
  let wall = Unix.gettimeofday () -. t0 in
  Trace.add sp "trials" (string_of_int !trials);
  Trace.add sp "rejected" (string_of_int !rejected);
  Trace.add sp "pruned" (string_of_int !pruned);
  (match !best with
  | Some (lat, i) ->
    Trace.add sp "best_index" (string_of_int i);
    Trace.add sp "best_latency_us" (Printf.sprintf "%.3f" (lat *. 1e6))
  | None -> Trace.add sp "outcome" "no feasible candidate");
  Trace.exit sp;
  Option.map
    (fun (lat, i) ->
      let cand = cands.(i) in
      (* Re-instantiate the winner in the calling domain so the returned
         artifact never depends on which domain compiled it. *)
      ( cand,
        compile cand,
        {
          trials = !trials;
          rejected = !rejected;
          pruned = !pruned;
          best_index = i;
          simulated_seconds =
            float_of_int (!trials + !pruned) *. seconds_per_trial;
          wall_seconds = wall;
          best_latency = lat;
          workers = w;
        } ))
    !best

let tune_matmul ~device ?(batch = 1) ?(a_batched = true) ?(b_batched = false)
    ?parallel ?search ~m ~n ~k () =
  tune ~device ?parallel ?search
    ~key:(Printf.sprintf "matmul_%d_%d_%d_%d" batch m n k)
    ~show:Matmul_template.config_to_string
    ~candidates:(Space.matmul_with_split_k ~m ~n)
    ~compile:(fun cfg ->
      Matmul_template.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg)
    ()
