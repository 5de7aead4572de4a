(* Tests for the serving runtime: batcher decisions (including the
   floating-point timer boundary), seeded load generation, virtual-time
   scheduling invariants and qcheck determinism (same seed => identical
   batch compositions and shed sets), bucket-variant compilation hitting
   the schedule cache instead of re-tuning, and batched execution agreeing
   bit-for-bit with the batch-1 plan. *)

module B = Hidet_serve.Batcher
module L = Hidet_serve.Loadgen
module R = Hidet_serve.Registry
module P = Hidet_serve.Pool
module Srv = Hidet_serve.Server
module Slo = Hidet_serve.Slo
module HE = Hidet.Hidet_engine
module Metrics = Hidet_obs.Metrics
module E = Hidet_obs.Events
module SC = Hidet_sched.Schedule_cache
module T = Hidet_tensor.Tensor

let dev = Hidet_gpu.Device.rtx3090

let bcfg ?(buckets = [ 1; 2; 4; 8 ]) ?(max_wait = 0.02) ?(queue_cap = 16)
    ?(batching = true) () =
  { B.buckets; max_wait; queue_cap; batching }

let scfg ?(batcher = bcfg ()) ?(workers = 2) ?(max_inflight = 2)
    ?(service_scale = 1.) () =
  { Srv.batcher; workers; max_inflight; service_scale }

(* --- batcher ---------------------------------------------------------------- *)

let test_bucket_for () =
  let cfg = bcfg () in
  Alcotest.(check int) "1 -> 1" 1 (B.bucket_for cfg 1);
  Alcotest.(check int) "3 -> 4" 4 (B.bucket_for cfg 3);
  Alcotest.(check int) "4 -> 4" 4 (B.bucket_for cfg 4);
  Alcotest.(check int) "clamp above" 8 (B.bucket_for cfg 100);
  Alcotest.(check int) "clamp below" 1 (B.bucket_for cfg 0)

let test_validate_rejects () =
  let bad cfg =
    match B.validate cfg with
    | () -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  bad (bcfg ~buckets:[] ());
  bad (bcfg ~buckets:[ 2; 4 ] ());
  bad (bcfg ~buckets:[ 1; 4; 2 ] ());
  bad (bcfg ~max_wait:(-1.) ());
  bad (bcfg ~queue_cap:0 ());
  B.validate (bcfg ())

let test_decide () =
  let cfg = bcfg () in
  let d = B.decide cfg ~draining:false in
  Alcotest.(check bool) "empty queue waits for events" true
    (d ~now:1. ~queue_len:0 ~oldest_arrival:0. = B.Wait_event);
  Alcotest.(check bool) "full bucket dispatches" true
    (d ~now:1. ~queue_len:9 ~oldest_arrival:1. = B.Dispatch 8);
  Alcotest.(check bool) "stale head dispatches partial" true
    (d ~now:1. ~queue_len:3 ~oldest_arrival:0.9 = B.Dispatch 3);
  Alcotest.(check bool) "fresh partial batch waits" true
    (d ~now:1. ~queue_len:3 ~oldest_arrival:0.995 = B.Wait_until 1.015);
  Alcotest.(check bool) "draining flushes immediately" true
    (B.decide cfg ~draining:true ~now:1. ~queue_len:3 ~oldest_arrival:0.999
    = B.Dispatch 3);
  let solo = bcfg ~batching:false () in
  Alcotest.(check bool) "batching off dispatches singles" true
    (B.decide solo ~draining:false ~now:1. ~queue_len:5 ~oldest_arrival:1.
    = B.Dispatch 1)

(* Regression: the event loop advances the clock to exactly the returned
   [Wait_until] target; the timeout test must fire there even though
   [(oldest +. w) -. oldest >= w] is not a floating-point tautology. *)
let test_decide_timer_boundary () =
  let cfg = bcfg ~max_wait:0.02 () in
  List.iter
    (fun oldest ->
      match
        B.decide cfg ~draining:false ~now:(oldest +. 0.02) ~queue_len:2
          ~oldest_arrival:oldest
      with
      | B.Dispatch 2 -> ()
      | _ -> Alcotest.failf "timer did not fire at oldest=%.17g" oldest)
    [ 0.1; 1.; 3.7; 1234.56789; 1e6; 0.30000000000000004 ]

(* --- loadgen ---------------------------------------------------------------- *)

let lg ?(rps = 50.) ?(duration = 1.) ?(deadline = 0.5) ?burst ?(seed = 7) () =
  { L.profile = L.Open_loop { rps }; duration; deadline; burst; seed }

let test_open_arrivals () =
  let base = L.open_arrivals (lg ()) in
  Alcotest.(check bool) "nonempty" true (base <> []);
  Alcotest.(check bool) "sorted, in range" true
    (List.for_all (fun t -> t >= 0. && t < 1.) base
    && List.sort compare base = base);
  Alcotest.(check bool) "same seed, same stream" true
    (base = L.open_arrivals (lg ()));
  Alcotest.(check bool) "different seed, different stream" true
    (base <> L.open_arrivals (lg ~seed:8 ()));
  let with_burst =
    L.open_arrivals (lg ~burst:{ L.start = 0.4; dur = 0.2; rps = 300. } ())
  in
  Alcotest.(check bool) "burst only adds arrivals (base stream unchanged)"
    true
    (List.for_all (fun t -> List.mem t with_burst) base);
  Alcotest.(check bool) "burst extras stay inside the window" true
    (List.for_all
       (fun t -> t >= 0.4 && t < 0.6)
       (List.filter (fun t -> not (List.mem t base)) with_burst))

let test_synth_inputs () =
  let shapes = [ [ 1; 3; 4 ]; [ 4; 5 ] ] in
  let a = L.synth_inputs ~seed:1 ~shapes 0 in
  Alcotest.(check (list (list int))) "shapes" shapes (List.map T.shape a);
  Alcotest.(check bool) "deterministic" true
    (compare a (L.synth_inputs ~seed:1 ~shapes 0) = 0);
  Alcotest.(check bool) "rid-dependent" true
    (compare a (L.synth_inputs ~seed:1 ~shapes 1) <> 0)

(* --- virtual-time server --------------------------------------------------- *)

let count records f = List.length (List.filter f records)
let is_completed r = match r.Srv.outcome with Srv.Completed _ -> true | _ -> false
let is_shed r = match r.Srv.outcome with Srv.Shed _ -> true | _ -> false
let is_rejected r = match r.Srv.outcome with Srv.Rejected _ -> true | _ -> false

(* One closed-loop client, constant 10 ms service, 10 ms think: requests
   at 0, 0.02 and 0.04 virtual seconds, each alone in a bucket-1 batch. *)
let test_closed_loop_hand_check () =
  let s =
    Srv.simulate (scfg ())
      ~latency:(fun _ -> 0.01)
      {
        L.profile = L.Closed_loop { clients = 1; think = 0.01 };
        duration = 0.05;
        deadline = 1.;
        burst = None;
        seed = 0;
      }
  in
  Alcotest.(check int) "three requests" 3 (List.length s.Srv.records);
  Alcotest.(check int) "three singleton batches" 3 (List.length s.Srv.batches);
  List.iter
    (fun r ->
      match r.Srv.outcome with
      | Srv.Completed { completion; _ } ->
        Alcotest.(check (float 1e-9)) "e2e is one service time" 0.01
          (completion -. r.Srv.req.L.arrival)
      | _ -> Alcotest.fail "all requests complete")
    s.Srv.records;
  Alcotest.(check (float 1e-9)) "makespan" 0.05 s.Srv.makespan

let test_hopeless_requests_are_shed_not_run () =
  let s =
    Srv.simulate (scfg ())
      ~latency:(fun _ -> 0.01)
      (lg ~deadline:0.001 ())
  in
  Alcotest.(check int) "nothing executed" 0 (List.length s.Srv.batches);
  Alcotest.(check bool) "everything shed" true
    (s.Srv.records <> [] && List.for_all is_shed s.Srv.records)

let test_backpressure_rejects () =
  let cfg = scfg ~batcher:(bcfg ~queue_cap:2 ~max_wait:0.05 ()) ~workers:1 ~max_inflight:1 () in
  let s = Srv.simulate cfg ~latency:(fun _ -> 0.05) (lg ~rps:200. ~duration:0.3 ~deadline:10. ()) in
  Alcotest.(check bool) "queue bound rejects the excess" true
    (count s.Srv.records is_rejected > 0);
  Alcotest.(check bool) "queue depth never exceeds cap" true
    (List.for_all (fun (b : P.batch) -> List.length b.P.members <= 2 + 1) s.Srv.batches)

let test_overload_burst_sheds () =
  let cfg = scfg ~batcher:(bcfg ~queue_cap:64 ()) () in
  let s =
    Srv.simulate cfg
      ~latency:(fun b -> 0.01 *. (1. +. (0.2 *. float_of_int b)))
      (lg ~rps:40. ~deadline:0.08
         ~burst:{ L.start = 0.3; dur = 0.2; rps = 2000. }
         ())
  in
  Alcotest.(check bool) "burst activates shedding" true
    (count s.Srv.records is_shed > 0);
  Alcotest.(check bool) "steady load still completes" true
    (count s.Srv.records is_completed > 0)

let test_conservation () =
  let s =
    Srv.simulate (scfg ())
      ~latency:(fun b -> 0.002 *. float_of_int b)
      (lg ~rps:150. ~deadline:0.05 ())
  in
  let completed = count s.Srv.records is_completed in
  Alcotest.(check int) "every request has exactly one outcome"
    (List.length s.Srv.records)
    (completed + count s.Srv.records is_shed + count s.Srv.records is_rejected);
  Alcotest.(check int) "batch members account for every completion" completed
    (List.fold_left (fun a (b : P.batch) -> a + List.length b.P.members) 0 s.Srv.batches);
  List.iter
    (fun (b : P.batch) ->
      Alcotest.(check bool) "members fit the bucket" true
        (List.length b.P.members >= 1 && List.length b.P.members <= b.P.bucket))
    s.Srv.batches

(* Random serving scenarios — shared by the determinism property and the
   event-log conservation property below. *)
let sim_arb =
  let gen =
    let open QCheck.Gen in
    let profile =
      oneof
        [
          map (fun rps -> L.Open_loop { rps = float_of_int rps }) (int_range 5 200);
          map2
            (fun c think ->
              L.Closed_loop { clients = c; think = 0.001 *. float_of_int think })
            (int_range 1 5) (int_range 1 40);
        ]
    in
    let burst =
      opt
        (map2
           (fun s rps ->
             { L.start = 0.05 *. float_of_int s; dur = 0.2; rps = float_of_int rps })
           (int_range 0 10) (int_range 100 1000))
    in
    let lg =
      map2
        (fun (profile, burst) (duration, deadline, seed) ->
          {
            L.profile;
            duration = 0.1 *. float_of_int duration;
            deadline = 0.01 *. float_of_int deadline;
            burst;
            seed;
          })
        (pair profile burst)
        (triple (int_range 2 10) (int_range 2 40) (int_range 0 1000))
    in
    let cfg =
      map2
        (fun (mw, cap, batching) (workers, inflight) ->
          {
            Srv.batcher =
              {
                B.buckets = [ 1; 2; 4; 8 ];
                max_wait = 0.002 *. float_of_int mw;
                queue_cap = cap;
                batching;
              };
            workers;
            max_inflight = inflight;
            service_scale = 1.;
          })
        (triple (int_range 0 20) (int_range 1 64) bool)
        (pair (int_range 1 4) (int_range 1 4))
    in
    pair cfg lg
  in
  QCheck.make gen ~print:(fun (cfg, lg) ->
      Printf.sprintf
        "seed=%d dur=%g dl=%g batching=%b cap=%d mw=%g workers=%d inflight=%d burst=%b %s"
        lg.L.seed lg.L.duration lg.L.deadline cfg.Srv.batcher.B.batching
        cfg.Srv.batcher.B.queue_cap cfg.Srv.batcher.B.max_wait
        cfg.Srv.workers cfg.Srv.max_inflight (lg.L.burst <> None)
        (match lg.L.profile with
        | L.Open_loop { rps } -> Printf.sprintf "open rps=%g" rps
        | L.Closed_loop { clients; think } ->
          Printf.sprintf "closed clients=%d think=%g" clients think))

let sim_latency b = 0.003 *. (1. +. (0.25 *. float_of_int b))

(* Satellite: same seed => identical schedules — batch compositions, shed
   sets, timings — across repeated runs, for random configs and traffic. *)
let prop_simulate_deterministic =
  QCheck.Test.make ~name:"same seed => identical schedule" ~count:30 sim_arb
    (fun (cfg, lg) ->
      let s1 = Srv.simulate cfg ~latency:sim_latency lg in
      let s2 = Srv.simulate cfg ~latency:sim_latency lg in
      compare s1 s2 = 0)

(* Tentpole: whatever the scenario, the emitted lifecycle event log passes
   the strict validator — every request's first event is an admission
   decision, every admitted request reaches exactly one terminal event,
   timestamps are monotone per request — and the JSONL export round-trips
   bit-exactly through the strict JSON parser. *)
let prop_event_log_conserves =
  QCheck.Test.make ~name:"event log: lifecycle conservation" ~count:30 sim_arb
    (fun (cfg, lg) ->
      let log = E.create ~capacity:(1 lsl 16) () in
      let s = E.with_log log (fun () -> Srv.simulate cfg ~latency:sim_latency lg) in
      let evs = E.sort_events (E.events log) in
      let jsonl = E.to_jsonl evs in
      match E.check jsonl with
      | Error m -> QCheck.Test.fail_report ("event log invalid: " ^ m)
      | Ok (n, rids) ->
        n = List.length evs
        && E.dropped log = 0
        && rids = List.length s.Srv.records
        && (match E.parse_jsonl jsonl with
           | Ok back -> compare back evs = 0
           | Error _ -> false))

(* The event log agrees with the schedule's stats: one Admitted per
   admitted request, one terminal per request, and the Completed events'
   miss flags sum to deadline_miss. *)
let test_event_counts_match_stats () =
  let log = E.create () in
  let s =
    E.with_log log (fun () ->
        Srv.simulate
          (scfg ~batcher:(bcfg ~queue_cap:8 ()) ())
          ~latency:sim_latency
          (lg ~rps:150. ~deadline:0.05 ~burst:{ L.start = 0.3; dur = 0.2; rps = 800. } ()))
  in
  let st = Srv.stats s in
  let evs = E.events log in
  let count k = List.length (List.filter (fun e -> e.E.kind = k) evs) in
  Alcotest.(check int) "admitted events" st.Srv.admitted (count E.Admitted);
  Alcotest.(check int) "rejected events" st.Srv.rejected (count E.Rejected);
  Alcotest.(check int) "shed events" st.Srv.shed (count E.Shed);
  Alcotest.(check int) "completed events" st.Srv.completed (count E.Completed);
  Alcotest.(check int) "batched = dispatched = completed" st.Srv.completed
    (count E.Batched);
  Alcotest.(check int) "dispatched events" st.Srv.completed (count E.Dispatched);
  Alcotest.(check int) "miss flags sum to deadline_miss" st.Srv.deadline_miss
    (List.length
       (List.filter
          (fun e ->
            e.E.kind = E.Completed && List.assoc_opt "miss" e.E.attrs = Some "1")
          evs))

(* Regression: the flight recorder fires exactly once on the first
   deadline miss, even when the run misses many deadlines. Misses happen
   when a request joins a big-bucket batch whose service time exceeds its
   remaining slack (shedding only guards against the bucket-1 minimum). *)
let test_flight_fires_once_on_first_miss () =
  let fr = E.Flight.create () in
  E.set_flight (Some fr);
  let dumps0 = Metrics.value (Metrics.counter "obs.flight_dumps") in
  let s =
    Fun.protect
      ~finally:(fun () -> E.set_flight None)
      (fun () ->
        Srv.simulate
          (scfg ~batcher:(bcfg ~queue_cap:64 ()) ())
          ~latency:(fun b -> 0.012 *. float_of_int b)
          (lg ~rps:200. ~duration:0.5 ~deadline:0.06 ()))
  in
  let st = Srv.stats s in
  Alcotest.(check bool)
    (Printf.sprintf "scenario produces several misses (%d)" st.Srv.deadline_miss)
    true
    (st.Srv.deadline_miss >= 2);
  Alcotest.(check bool) "flight recorder fired" true (E.Flight.fired fr);
  Alcotest.(check int) "exactly one dump" (dumps0 + 1)
    (Metrics.value (Metrics.counter "obs.flight_dumps"));
  (* the dump names the first miss *)
  match E.Flight.dump fr with
  | None -> Alcotest.fail "fired but no dump"
  | Some d ->
    Alcotest.(check bool) "dump records the reason" true
      (let n = String.length d in
       let needle = "deadline_miss" in
       let m = String.length needle in
       let rec go i = i + m <= n && (String.sub d i m = needle || go (i + 1)) in
       go 0)

(* --- burn-rate SLO alerts --------------------------------------------------- *)

(* Hand-computed: budget 0.1, one rule (fast 1s / slow 4s, burn 2,
   min_count 2). At t=2.0 the fast window holds a single bad sample —
   gated by min_count. At t=2.5 the fast window (1.5, 2.5] is 2/2 bad
   (burn 10) and the slow window (-1.5, 2.5] is 2/4 bad (burn 5): both
   over threshold, so the rule fires there. *)
let test_slo_hand_check () =
  let cfg =
    {
      Slo.objective = 0.9;
      min_count = 2;
      rules = [ { Slo.rname = "r"; fast = 1.; slow = 4.; burn = 2. } ];
    }
  in
  let sample t good = { Slo.t; good } in
  let v =
    Slo.evaluate cfg
      [ sample 1.0 true; sample 2.5 false; sample 0.5 true; sample 2.0 false ]
  in
  Alcotest.(check int) "total" 4 v.Slo.total;
  Alcotest.(check int) "bad" 2 v.Slo.bad;
  Alcotest.(check (float 1e-9)) "miss ratio" 0.5 v.Slo.miss_ratio;
  Alcotest.(check (float 1e-9)) "budget" 0.1 v.Slo.budget;
  Alcotest.(check bool) "fired" true (Slo.fired v);
  (match v.Slo.alerts with
  | [ a ] ->
    Alcotest.(check bool) "rule fired" true a.Slo.fired;
    Alcotest.(check (float 1e-9)) "fires at the second bad sample" 2.5 a.Slo.at;
    Alcotest.(check (float 1e-9)) "fast burn" 10. a.Slo.fast_burn;
    Alcotest.(check (float 1e-9)) "slow burn" 5. a.Slo.slow_burn
  | _ -> Alcotest.fail "one alert per rule");
  let quiet = Slo.evaluate cfg [ sample 0.5 true; sample 1.0 true ] in
  Alcotest.(check bool) "all-good traffic never fires" false (Slo.fired quiet);
  (* machine-readable verdict parses and carries the alert *)
  match Hidet_obs.Json.(parse (to_string (Slo.verdict_to_json v))) with
  | Error m -> Alcotest.fail ("verdict json: " ^ m)
  | Ok j ->
    let open Hidet_obs.Json in
    let alerts = member "alerts" j |> Option.get |> to_arr |> Option.get in
    Alcotest.(check int) "one alert in json" 1 (List.length alerts);
    Alcotest.(check (option bool)) "fired in json" (Some true)
      (match member "fired" (List.hd alerts) with
      | Some (Bool b) -> Some b
      | _ -> None)

(* End to end over schedules: a low-load run keeps its budget, an
   overload run burns it and fires. *)
let test_slo_verdict_from_schedule () =
  let low =
    Srv.simulate (scfg ()) ~latency:sim_latency (lg ~rps:20. ~deadline:0.5 ())
  in
  let v = Srv.slo_verdict ~duration:1. low in
  Alcotest.(check int) "no bad requests at low load" 0 v.Slo.bad;
  Alcotest.(check bool) "no alert at low load" false (Slo.fired v);
  let over =
    Srv.simulate
      (scfg ~batcher:(bcfg ~queue_cap:8 ()) ())
      ~latency:sim_latency
      (lg ~rps:60. ~deadline:0.05
         ~burst:{ L.start = 0.2; dur = 0.4; rps = 1500. }
         ())
  in
  let v = Srv.slo_verdict ~duration:1. over in
  Alcotest.(check bool) "overload burns the budget" true (v.Slo.bad > 0);
  Alcotest.(check bool) "overload fires an alert" true (Slo.fired v)

(* --- registry, schedule cache, real execution ------------------------------ *)

(* Compiling the batch buckets twice must tune each distinct kernel shape
   exactly once: the second load performs zero fresh tuner trials and is
   served entirely by the schedule cache. *)
let test_bucket_variants_tune_once () =
  SC.clear ();
  let trials () = Metrics.value (Metrics.counter "tuner.trials") in
  let hits () = Metrics.value (Metrics.counter "schedule_cache.hits") in
  let load () =
    R.load ~engine:(module HE) ~device:dev ~buckets:[ 1; 2; 4; 8 ]
      (R.Zoo "tiny_cnn")
  in
  let t0 = trials () in
  let m1 = load () in
  let t1 = trials () in
  Alcotest.(check bool) "cold load runs fresh trials" true (t1 > t0);
  let h1 = hits () in
  let m2 = load () in
  Alcotest.(check int) "warm load performs zero fresh trials" t1 (trials ());
  Alcotest.(check bool) "warm load is served by the schedule cache" true
    (hits () > h1);
  List.iter
    (fun (v : R.variant) ->
      Alcotest.(check (float 0.)) "no fresh tuning cost on the warm load" 0.
        v.R.result.Hidet_runtime.Engine.tuning_cost)
    m2.R.variants;
  Alcotest.(check (list int)) "ascending buckets" [ 1; 2; 4; 8 ]
    (List.map (fun (v : R.variant) -> v.R.bucket) m1.R.variants);
  (* bucket 1 is always compiled, even when not requested *)
  let m3 = R.load ~engine:(module HE) ~device:dev ~buckets:[ 4 ] (R.Zoo "tiny_cnn") in
  Alcotest.(check (list int)) "bucket 1 added" [ 1; 4 ]
    (List.map (fun (v : R.variant) -> v.R.bucket) m3.R.variants)

let model =
  lazy
    (R.load ~engine:(module HE) ~device:dev ~buckets:[ 1; 2; 4; 8 ]
       (R.Zoo "tiny_separable"))

let req rid = { L.rid; client = -1; arrival = 0.; deadline = 1. }

(* Satellite: every bucket's output rows equal the per-request batch-1
   reference bit for bit; padded tail rows never leak into responses. *)
let test_bucket_outputs_match_batch1 () =
  let model = Lazy.force model in
  let mk bid bucket rids =
    {
      P.bid;
      bucket;
      members = List.map req rids;
      dispatch = 0.;
      completion = 0.;
      worker = 0;
    }
  in
  let batches =
    [
      mk 0 1 [ 0 ];
      mk 1 2 [ 1; 2 ];
      mk 2 4 [ 3; 4; 5 ];
      mk 3 8 [ 6; 7; 8; 9; 10 ];
    ]
  in
  Alcotest.(check int) "padding counted" 4
    (List.fold_left (fun a b -> a + P.padded_rows b) 0 batches);
  let responses = P.execute ~seed:5 model batches in
  Alcotest.(check int) "one response per member" 11 (List.length responses);
  Alcotest.(check int) "all responses bit-identical to batch-1" 0
    (P.check ~seed:5 model responses)

let test_serve_end_to_end () =
  let model = Lazy.force model in
  let cfg = scfg ~service_scale:2000. () in
  let r =
    Srv.run cfg model
      (lg ~rps:30. ~duration:0.6 ~deadline:0.3 ~seed:2 ())
  in
  Alcotest.(check (option int)) "no mismatches" (Some 0) r.Srv.mismatches;
  Alcotest.(check bool) "some requests completed" true
    (r.Srv.summary.Srv.completed > 0);
  Alcotest.(check bool) "some real batching happened" true
    (List.exists
       (fun (b : P.batch) -> List.length b.P.members > 1)
       r.Srv.schedule.Srv.batches);
  Alcotest.(check int) "a response per completion"
    r.Srv.summary.Srv.completed
    (List.length r.Srv.responses)

let () =
  Alcotest.run "hidet_serve"
    [
      ( "batcher",
        [
          Alcotest.test_case "bucket_for" `Quick test_bucket_for;
          Alcotest.test_case "validate rejects bad configs" `Quick
            test_validate_rejects;
          Alcotest.test_case "decide" `Quick test_decide;
          Alcotest.test_case "timer fires at its own boundary" `Quick
            test_decide_timer_boundary;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "open-loop arrivals" `Quick test_open_arrivals;
          Alcotest.test_case "synthesized inputs" `Quick test_synth_inputs;
        ] );
      ( "server",
        [
          Alcotest.test_case "closed-loop hand check" `Quick
            test_closed_loop_hand_check;
          Alcotest.test_case "hopeless requests shed, not run" `Quick
            test_hopeless_requests_are_shed_not_run;
          Alcotest.test_case "bounded queue rejects" `Quick
            test_backpressure_rejects;
          Alcotest.test_case "overload burst sheds" `Quick
            test_overload_burst_sheds;
          Alcotest.test_case "outcome conservation" `Quick test_conservation;
          QCheck_alcotest.to_alcotest prop_simulate_deterministic;
        ] );
      ( "telemetry",
        [
          QCheck_alcotest.to_alcotest prop_event_log_conserves;
          Alcotest.test_case "event counts match stats" `Quick
            test_event_counts_match_stats;
          Alcotest.test_case "flight fires once on first miss" `Quick
            test_flight_fires_once_on_first_miss;
          Alcotest.test_case "burn-rate hand check" `Quick test_slo_hand_check;
          Alcotest.test_case "burn-rate verdict from schedules" `Quick
            test_slo_verdict_from_schedule;
        ] );
      ( "registry",
        [
          Alcotest.test_case "bucket variants tune once" `Quick
            test_bucket_variants_tune_once;
        ] );
      ( "pool",
        [
          Alcotest.test_case "bucket outputs match batch-1" `Quick
            test_bucket_outputs_match_batch1;
          Alcotest.test_case "serve end to end" `Quick test_serve_end_to_end;
        ] );
    ]
