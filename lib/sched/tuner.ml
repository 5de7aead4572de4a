module Trace = Hidet_obs.Trace
module Metrics = Hidet_obs.Metrics
module Tuning_log = Hidet_obs.Tuning_log
module Parallel = Hidet_parallel.Parallel

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

(* Candidates in branch-and-bound step [s]: 1, 2, 4, 8, then 16 each. A
   step measures against the best latency found before it began, so the
   first steps are small to get a threshold after one trial, and the later
   ones wide enough to keep the workers busy. A fixed schedule, so which
   candidates are skipped never depends on the worker count. *)
let chunk_size s = 1 lsl min s 4

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
   (lat, compiled)]: compiled and run through the latency model
   ([infinity] = infeasible on this device, still a paid measurement);
   the kernel it measured is kept, so the winner is never rebuilt. *)
type outcome = Rejected | Pruned | Measured of float * Compiled.t

let latency_of = function
  | Measured (lat, _) -> lat
  | Rejected | Pruned -> infinity

let log_outcome = function
  | Rejected -> Tuning_log.Rejected
  | Pruned -> Tuning_log.Pruned
  | Measured (lat, _) when lat < infinity -> Tuning_log.Measured
  | Measured _ -> Tuning_log.Infeasible

let log_trial ~engine ~key ~show ~index ~cand outcome =
  if Tuning_log.enabled () then
    Tuning_log.record
      {
        Tuning_log.engine;
        workload = key;
        index;
        config = (fun () -> show cand);
        outcome = log_outcome outcome;
        latency = latency_of outcome;
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
  | Measured (lat, _) when lat < infinity ->
    Trace.add csp "latency_us" (Printf.sprintf "%.3f" (lat *. 1e6))
  | _ -> ());
  Trace.add csp "instantiate_us" (Printf.sprintf "%.1f" ((t1 -. t0) *. 1e6));
  Trace.add csp "estimate_us" (Printf.sprintf "%.1f" ((t2 -. t1) *. 1e6));
  Trace.exit csp;
  outcome

let tune ?(seconds_per_trial = seconds_per_trial) ?(parallel = true)
    ?workers ?(engine = "hidet") ?(key = "") ?(show = fun _ -> "")
    ?fidelity ?lower_bound ~device ~candidates:cands ~compile () =
  let t0 = Unix.gettimeofday () in
  let n = Array.length cands in
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
          ("candidates", string_of_int n);
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
    Measured (Compiled.latency ?fidelity device compiled, compiled)
  in
  (* Whether each candidate gets its own trace span is decided once per
     tune call, so the untraced path stays a bare compile+measure. *)
  let measure =
    if Trace.enabled () then fun i ->
      traced_trial ~key ~show ~index:i ~cand:cands.(i) ~instantiate ~estimate
    else fun i ->
      match instantiate cands.(i) with None -> Rejected | Some c -> estimate c
  in
  let prune () =
    Metrics.incr m_pruned;
    Pruned
  in
  let trials = ref 0 and rejected = ref 0 and pruned = ref 0 in
  let best = ref None in
  (* Outcomes are merged and logged in the driver, in visiting order; a
     latency tie keeps the lower index, so the parallel and sequential
     paths always select the same config. *)
  let merge i outcome =
    (match outcome with
    | Rejected -> incr rejected
    | Pruned -> incr pruned
    | Measured (lat, compiled) -> (
      incr trials;
      if lat < infinity then
        match !best with
        | Some (b, j, _) when b < lat || (b = lat && j < i) -> ()
        | _ -> best := Some (lat, i, compiled)));
    log_trial ~engine ~key ~show ~index:i ~cand:cands.(i) outcome
  in
  let threshold () =
    match !best with Some (b, _, _) -> b | None -> infinity
  in
  (* One step: every candidate of [visit] is measured unless [skip]s it
     against the best latency found before the step began. *)
  let run_step ~skip visit =
    let threshold = threshold () in
    let prune_or_measure i = if skip threshold i then prune () else measure i in
    (* Bounds ascend, so a step whose first candidate is skipped is
       skipped whole: no domains to start. *)
    let outcomes =
      if skip threshold visit.(0) then Array.map prune_or_measure visit
      else Parallel.map ~workers:w prune_or_measure visit
    in
    Array.iteri (fun vi outcome -> merge visit.(vi) outcome) outcomes
  in
  (* Without a bound every candidate is measured, in one step. With one,
     candidates are visited in ascending (bound, index) order,
     [chunk_size s] in step [s]: one whose bound is strictly above the best
     latency measured before its step began has a latency above the final
     best, so it can neither win nor tie and is skipped uninstantiated.
     Step 0 is the argmin alone. Thresholds only fall, so once its latency
     [t0] is finite a candidate whose bound is above [t0] is skipped
     whatever comes later: those are cut in one pass (logged in index
     order), and only the rest, a prefix of the full order, is sorted.
     [bound_s] times the floors, the argmin, the cut and the sort. *)
  let bound_s = ref 0. in
  let timed f =
    let tb = Unix.gettimeofday () in
    let r = f () in
    bound_s := !bound_s +. (Unix.gettimeofday () -. tb);
    r
  in
  let survivors =
    match lower_bound with
    | _ when n = 0 -> 0
    | None ->
      run_step ~skip:(fun _ _ -> false) (Array.init n Fun.id);
      n - 1
    | Some lb ->
      let bound, first =
        timed (fun () ->
            let bound = lb cands in
            if Array.length bound <> n then
              invalid_arg "Tuner.tune: one floor per candidate";
            let first = ref 0 in
            for i = 1 to n - 1 do
              if Float.compare bound.(i) bound.(!first) < 0 then first := i
            done;
            (bound, !first))
      in
      let skip threshold i = bound.(i) > threshold in
      run_step ~skip [| first |];
      let t0 = threshold () in
      let order, cut =
        timed (fun () ->
            let kept = ref [] and cut = ref [] in
            for i = n - 1 downto 0 do
              if i <> first then
                if bound.(i) > t0 then cut := i :: !cut else kept := i :: !kept
            done;
            let order = Array.of_list !kept in
            Array.stable_sort (fun i j -> Float.compare bound.(i) bound.(j)) order;
            (order, !cut))
      in
      List.iter (fun i -> merge i (prune ())) cut;
      let pos = ref 0 and step = ref 1 in
      while !pos < Array.length order do
        let len = min (chunk_size !step) (Array.length order - !pos) in
        run_step ~skip (Array.sub order !pos len);
        pos := !pos + len;
        incr step
      done;
      Array.length order
  in
  let wall = Unix.gettimeofday () -. t0 in
  Trace.add sp "bound_us" (Printf.sprintf "%.1f" (!bound_s *. 1e6));
  Trace.add sp "survivors" (string_of_int survivors);
  Trace.add sp "trials" (string_of_int !trials);
  Trace.add sp "rejected" (string_of_int !rejected);
  Trace.add sp "pruned" (string_of_int !pruned);
  (match !best with
  | Some (lat, i, _) ->
    Trace.add sp "best_index" (string_of_int i);
    Trace.add sp "best_latency_us" (Printf.sprintf "%.3f" (lat *. 1e6))
  | None -> Trace.add sp "outcome" "no feasible candidate");
  Trace.exit sp;
  Option.map
    (fun (lat, i, compiled) ->
      ( cands.(i),
        compiled,
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

let cycle_lower_bound device ~compile =
  Array.map (fun cand ->
      match compile cand with
      | exception Invalid_argument _ -> 0.
      | (c : Compiled.t) ->
        List.fold_left
          (fun acc k -> acc +. Hidet_cycle.Fidelity.lower_bound device k)
          0. c.kernels)

let tune_matmul ~device ?(batch = 1) ?(a_batched = true) ?(b_batched = false)
    ?parallel ~m ~n ~k () =
  tune ~device ?parallel
    ~key:(Printf.sprintf "matmul_%d_%d_%d_%d" batch m n k)
    ~show:Matmul_template.config_to_string
    ~candidates:(Array.of_list (Space.matmul_with_split_k ~m ~n))
    ~compile:(fun cfg ->
      Matmul_template.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg)
    ()
