module Trace = Hidet_obs.Trace
module Metrics = Hidet_obs.Metrics
module Tuning_log = Hidet_obs.Tuning_log

type stats = {
  trials : int;
  rejected : int;
  best_index : int;
  simulated_seconds : float;
  wall_seconds : float;
  best_latency : float;
  workers : int;
}

let seconds_per_trial = 1.5

(* Trials and rejections are counted where they happen — inside the worker
   domains — so the observability tests can check that parallel counts sum
   to the sequential run's totals. *)
let m_trials = Metrics.counter "tuner.trials"
let m_rejected = Metrics.counter "tuner.rejected"

(* Outcome of one candidate. [Rejected]: the template refused the config
   ([Invalid_argument]); nothing was ever measured, so (per the cost
   accounting) no simulated seconds accrue. [Measured lat]: compiled and
   run through the latency model ([infinity] = infeasible on this device,
   still a paid measurement). *)
type outcome = Rejected | Measured of float

let log_trial ~engine ~key ~show ~index ~cand ~proposer outcome =
  if Tuning_log.enabled () then
    Tuning_log.record
      {
        Tuning_log.engine;
        workload = key;
        index;
        config = show cand;
        outcome =
          (match outcome with
          | Rejected -> Tuning_log.Rejected
          | Measured lat when lat < infinity -> Tuning_log.Measured
          | Measured _ -> Tuning_log.Infeasible);
        latency = (match outcome with Measured lat -> lat | Rejected -> infinity);
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
  (match outcome with
  | Rejected -> Trace.add csp "outcome" "rejected"
  | Measured lat when lat < infinity ->
    Trace.add csp "outcome" "measured";
    Trace.add csp "latency_us" (Printf.sprintf "%.3f" (lat *. 1e6))
  | Measured _ -> Trace.add csp "outcome" "infeasible");
  Trace.add csp "instantiate_us" (Printf.sprintf "%.1f" ((t1 -. t0) *. 1e6));
  Trace.add csp "estimate_us" (Printf.sprintf "%.1f" ((t2 -. t1) *. 1e6));
  Trace.exit csp;
  outcome

let tune ?(seconds_per_trial = seconds_per_trial) ?(parallel = true)
    ?workers ?(engine = "hidet") ?(key = "") ?(show = fun _ -> "")
    ?(search = Search.Exhaustive) ?fidelity ~device ~candidates ~compile () =
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
  let trials = ref 0 and rejected = ref 0 in
  let best = ref None in
  (match Search.start search ~candidates:cands with
  | None ->
    (* Exhaustive: measure every candidate. Whether each candidate gets its
       own tuning-log record is decided once per tune call too. *)
    let indices = Array.init (Array.length cands) Fun.id in
    let outcomes =
      if not (Tuning_log.enabled ()) then Parallel.map ~workers:w measure indices
      else
        Parallel.map ~workers:w
          (fun i ->
            let outcome = measure i in
            log_trial ~engine ~key ~show ~index:i ~cand:cands.(i)
              ~proposer:Tuning_log.Exhaustive outcome;
            outcome)
          indices
    in
    (* Deterministic merge: scan in candidate order and replace only on a
       strictly lower latency, so ties break toward the lowest index and the
       parallel and sequential paths always select the same config. *)
    Array.iteri
      (fun i -> function
        | Rejected -> incr rejected
        | Measured lat ->
          incr trials;
          if lat < infinity then
            match !best with
            | Some (b, _) when b <= lat -> ()
            | _ -> best := Some (lat, i))
      outcomes
  | Some run ->
    (* Guided: the search proposes generations of candidate indices; each
       generation is measured (possibly across domains, each trial span in
       the domain that measures it) and merged — and observed and logged —
       in batch order, so the whole trial sequence is a function of the
       seed alone. *)
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
            let cand = cands.(i) in
            (match outcome with
            | Rejected -> incr rejected
            | Measured lat ->
              incr trials;
              if lat < infinity then
                match !best with
                | Some (b, _) when b <= lat -> ()
                | _ -> best := Some (lat, i));
            Search.observe run ~index:i
              ~latency:
                (match outcome with Measured l -> l | Rejected -> infinity);
            log_trial ~engine ~key ~show ~index:i ~cand ~proposer outcome)
          outcomes
    done);
  let wall = Unix.gettimeofday () -. t0 in
  Trace.add sp "trials" (string_of_int !trials);
  Trace.add sp "rejected" (string_of_int !rejected);
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
          best_index = i;
          simulated_seconds = float_of_int !trials *. seconds_per_trial;
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
