(* Tests for the observability layer: span nesting and containment, the
   Chrome trace-event export (including flow arcs) and its validator, the
   hand-written JSON parser, always-on metrics summing exactly across
   domains, labeled instruments and the Prometheus exposition, the
   request-lifecycle event log and flight recorder, the tuner's
   per-candidate spans and tuning-log records, and the cost of the
   instrumentation when tracing is off. *)

module Trace = Hidet_obs.Trace
module Metrics = Hidet_obs.Metrics
module Chrome = Hidet_obs.Chrome_trace
module Json = Hidet_obs.Json
module Events = Hidet_obs.Events
module Prom = Hidet_obs.Prom
module Tlog = Hidet_obs.Tuning_log
module Tu = Hidet_sched.Tuner
module MT = Hidet_sched.Matmul_template
module Space = Hidet_sched.Space

let dev = Hidet_gpu.Device.rtx3090

let span_tuples evs =
  List.filter_map
    (function
      | Trace.Span { name; track; ts_us; dur_us; attrs } ->
        Some (name, track, ts_us, dur_us, attrs)
      | Trace.Instant _ | Trace.Flow _ -> None)
    evs

(* --- spans ------------------------------------------------------------------ *)

let test_span_nesting () =
  let (), evs =
    Trace.with_collector (fun () ->
        Trace.span "outer" (fun _ ->
            Trace.span "inner1" (fun sp -> Trace.add sp "k" "v");
            Trace.span "inner2" (fun _ -> ())))
  in
  let spans = span_tuples evs in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let find n = List.find (fun (name, _, _, _, _) -> name = n) spans in
  let _, _, ots, odur, _ = find "outer" in
  let check_contained n =
    let _, _, ts, dur, _ = find n in
    Alcotest.(check bool) (n ^ " dur >= 0") true (dur >= 0.);
    Alcotest.(check bool)
      (n ^ " contained in outer")
      true
      (ots <= ts && ts +. dur <= ots +. odur +. 1e-6)
  in
  check_contained "inner1";
  check_contained "inner2";
  (* Sorted by start time, parent ahead of its children. *)
  (match spans with
  | ("outer", _, _, _, _) :: _ -> ()
  | _ -> Alcotest.fail "outer span must sort first");
  let _, _, _, _, attrs = find "inner1" in
  Alcotest.(check (list (pair string string))) "attrs" [ ("k", "v") ] attrs

let test_span_error_attr () =
  let (), evs =
    Trace.with_collector (fun () ->
        try Trace.span "boom" (fun _ -> failwith "expected") with
        | Failure _ -> ())
  in
  match span_tuples evs with
  | [ ("boom", _, _, _, attrs) ] ->
    Alcotest.(check bool) "error attr recorded" true (List.mem_assoc "error" attrs)
  | _ -> Alcotest.fail "expected exactly the failed span"

let test_noop_allocation_light () =
  Alcotest.(check bool) "tracing off" false (Trace.enabled ());
  let iters = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    let sp = Trace.enter "x" in
    Trace.add sp "k" "v";
    Trace.exit sp
  done;
  let per_iter = (Gc.minor_words () -. w0) /. float_of_int iters in
  Alcotest.(check bool)
    (Printf.sprintf "noop span costs ~no allocation (%.2f words/iter)" per_iter)
    true (per_iter < 1.

)

(* --- domains: distinct tracks, exact counter sums --------------------------- *)

let test_domains_tracks_and_counters () =
  let c = Metrics.counter "test.obs.domain_increments" in
  let v0 = Metrics.value c in
  let ready = Atomic.make 0 in
  let (), evs =
    Trace.with_collector (fun () ->
        let work () =
          for _ = 1 to 1000 do
            Metrics.incr c
          done;
          Trace.instant "worker_mark";
          (* Hold the domain alive until all three have recorded, so their
             track assignments are concurrent and therefore distinct. *)
          Atomic.incr ready;
          while Atomic.get ready < 3 do
            Domain.cpu_relax ()
          done
        in
        let ds = List.init 3 (fun _ -> Domain.spawn work) in
        List.iter Domain.join ds)
  in
  Alcotest.(check int) "counters sum exactly" 3000 (Metrics.value c - v0);
  let tracks =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Trace.Instant { name = "worker_mark"; track; _ } -> Some track
           | _ -> None)
         evs)
  in
  Alcotest.(check int) "three concurrent domains, three tracks" 3
    (List.length tracks)

(* --- tuner instrumentation --------------------------------------------------- *)

let sub_space ~m ~n ~stride ~offset =
  Space.matmul_with_split_k ~m ~n
  |> List.filteri (fun i _ -> i mod stride = offset)

let test_tuner_spans_and_log () =
  let candidates = sub_space ~m:64 ~n:64 ~stride:7 ~offset:0 in
  let compile cfg = MT.compile ~m:64 ~n:64 ~k:64 cfg in
  Tlog.start ();
  let r, evs =
    Trace.with_collector (fun () ->
        Tu.tune ~workers:4 ~key:"mm_test" ~show:MT.config_to_string
          ~device:dev ~candidates ~compile ())
  in
  let logged = Tlog.stop () in
  match r with
  | None -> Alcotest.fail "tuner found nothing"
  | Some (_, _, st) ->
    let spans = span_tuples evs in
    let trials =
      List.filter (fun (name, _, _, _, _) -> name = "trial") spans
    in
    Alcotest.(check int) "one trial span per candidate"
      (List.length candidates) (List.length trials);
    Alcotest.(check int) "one log record per candidate"
      (List.length candidates) (List.length logged);
    Alcotest.(check int) "log indices are distinct"
      (List.length candidates)
      (List.length
         (List.sort_uniq compare (List.map (fun t -> t.Tlog.index) logged)));
    Alcotest.(check int) "measured+infeasible records = stats.trials"
      st.Tu.trials
      (List.length
         (List.filter (fun t -> t.Tlog.outcome <> Tlog.Rejected) logged));
    Alcotest.(check int) "rejected records = stats.rejected" st.Tu.rejected
      (List.length
         (List.filter (fun t -> t.Tlog.outcome = Tlog.Rejected) logged));
    List.iter
      (fun t ->
        Alcotest.(check string) "engine label" "hidet" t.Tlog.engine;
        Alcotest.(check string) "workload label" "mm_test" t.Tlog.workload;
        Alcotest.(check bool) "config rendered" true (t.Tlog.config <> ""))
      logged;
    (match
       List.find_opt (fun (name, _, _, _, _) -> name = "tune") spans
     with
    | None -> Alcotest.fail "missing tune span"
    | Some (_, _, ts, dur, attrs) ->
      Alcotest.(check (option string)) "tune engine attr" (Some "hidet")
        (List.assoc_opt "engine" attrs);
      List.iter
        (fun (_, _, cts, cdur, _) ->
          Alcotest.(check bool) "trial within tune span" true
            (ts <= cts && cts +. cdur <= ts +. dur +. 1e-6))
        trials)

(* One traced cold compile: the tuning log has a row per candidate of the
   tune spans, each one instantiated (a trial span, counted as a trial or
   a rejection) or skipped by the lower bound (counted as pruned); the
   trial spans time the work, so together they fit in the tune spans times
   the workers; and plan.kernels_emitted counts the launches the result
   reports. *)
let test_compile_counters_agree () =
  let trials = Metrics.counter "tuner.trials"
  and rejected = Metrics.counter "tuner.rejected"
  and pruned = Metrics.counter "tuner.pruned"
  and emitted = Metrics.counter "plan.kernels_emitted" in
  let t0 = Metrics.value trials
  and r0 = Metrics.value rejected
  and p0 = Metrics.value pruned
  and e0 = Metrics.value emitted in
  Hidet_sched.Schedule_cache.clear ();
  let g = (List.assoc "tiny_separable" Hidet_models.Models.tiny_all) () in
  Tlog.start ();
  let (_, res), evs =
    Trace.with_collector (fun () -> Hidet.Hidet_engine.compile_plan dev g)
  in
  let logged = Tlog.stop () in
  Hidet_sched.Schedule_cache.clear ();
  let spans = span_tuples evs in
  let total name =
    List.fold_left
      (fun (n, us) (nm, _, _, dur, _) -> if nm = name then (n + 1, us +. dur) else (n, us))
      (0, 0.) spans
  in
  let n_trial, trial_us = total "trial" and _, tune_us = total "tune" in
  let tune_attr a =
    List.fold_left
      (fun acc (nm, _, _, _, attrs) ->
        if nm = "tune" then acc + int_of_string (List.assoc a attrs) else acc)
      0 spans
  in
  let n_pruned = Metrics.value pruned - p0 in
  Alcotest.(check bool) "the compile tuned something" true (n_trial > 0);
  Alcotest.(check bool) "the bound skipped something" true (n_pruned > 0);
  Alcotest.(check int) "trial spans = trials + rejected"
    (Metrics.value trials - t0 + (Metrics.value rejected - r0))
    n_trial;
  Alcotest.(check int) "tune spans' pruned = tuner.pruned" n_pruned
    (tune_attr "pruned");
  Alcotest.(check int) "tuning-log rows = trials + rejected + pruned"
    (n_trial + n_pruned) (List.length logged);
  Alcotest.(check int) "tuning-log rows = candidates" (tune_attr "candidates")
    (List.length logged);
  Alcotest.(check int) "pruned rows = tuner.pruned" n_pruned
    (List.length
       (List.filter (fun (t : Tlog.trial) -> t.Tlog.outcome = Tlog.Pruned) logged));
  let workers = Hidet_parallel.Parallel.default_workers () in
  Alcotest.(check bool)
    (Printf.sprintf "trial spans %.0f us <= tune %.0f us x %d workers" trial_us
       tune_us workers)
    true
    (trial_us <= tune_us *. float_of_int workers);
  List.iter
    (fun (nm, _, _, _, attrs) ->
      if nm = "trial" then
        List.iter
          (fun a ->
            Alcotest.(check bool) ("trial span has " ^ a) true (List.mem_assoc a attrs))
          [ "instantiate_us"; "estimate_us" ])
    spans;
  Alcotest.(check int) "plan.kernels_emitted = result kernels"
    res.Hidet_runtime.Engine.kernel_count
    (Metrics.value emitted - e0)

(* Metric deltas from the always-on counters must be identical whether the
   enumeration ran on one domain or several, over random matmul sub-spaces
   (the counters are bumped inside the worker domains). *)
let gen_case =
  let open QCheck.Gen in
  let size = oneofa [| 17; 32; 49; 64; 96 |] in
  let* m = size and* n = size and* k = size in
  let* stride = int_range 5 19 in
  let* offset = int_range 0 4 in
  return (m, n, k, stride, offset)

let arb_case =
  QCheck.make
    ~print:(fun (m, n, k, stride, offset) ->
      Printf.sprintf "m=%d n=%d k=%d stride=%d offset=%d" m n k stride offset)
    gen_case

let counter_deltas f =
  let counters =
    List.map Metrics.counter [ "tuner.trials"; "tuner.rejected"; "tuner.pruned" ]
  in
  let before = List.map Metrics.value counters in
  f ();
  List.map2 (fun c v -> Metrics.value c - v) counters before

(* With and without the lower bound: the counts also cover every
   candidate exactly once. *)
let prop_parallel_counter_parity =
  QCheck.Test.make ~name:"parallel metric deltas = sequential" ~count:8
    arb_case (fun (m, n, k, stride, offset) ->
      let candidates = sub_space ~m ~n ~stride ~offset in
      QCheck.assume (candidates <> []);
      let compile cfg = MT.compile ~m ~n ~k cfg in
      List.for_all
        (fun lower_bound ->
          let deltas ?workers ~parallel () =
            counter_deltas (fun () ->
                ignore
                  (Tu.tune ~parallel ?workers ?lower_bound ~device:dev
                     ~candidates ~compile ()))
          in
          let seq = deltas ~parallel:false () in
          seq = deltas ~parallel:true ~workers:4 ()
          && List.fold_left ( + ) 0 seq = List.length candidates)
        [ None; Some (MT.lower_bound dev ~m ~n ~k) ])

(* --- Chrome trace export ------------------------------------------------------ *)

let collect_some_events () =
  let (), evs =
    Trace.with_collector (fun () ->
        Trace.span "a" (fun _ -> Trace.span "b" (fun _ -> Trace.instant "i")))
  in
  evs

let test_chrome_json_valid () =
  let evs = collect_some_events () in
  let s = Chrome.to_string evs in
  (match Json.parse s with
  | Error msg -> Alcotest.fail ("export does not parse: " ^ msg)
  | Ok _ -> ());
  match Chrome.check s with
  | Error msg -> Alcotest.fail ("validator rejects export: " ^ msg)
  | Ok n -> Alcotest.(check int) "3 events" 3 n

let test_chrome_ts_consistent () =
  let evs = collect_some_events () in
  let s = Chrome.to_string evs in
  let json = Result.get_ok (Json.parse s) in
  let events =
    Option.get (Json.member "traceEvents" json) |> Json.to_arr |> Option.get
  in
  let prev = ref neg_infinity in
  List.iter
    (fun ev ->
      match Json.member "ph" ev |> Option.get |> Json.to_str with
      | Some "M" -> ()
      | _ ->
        let num field =
          match Json.member field ev with
          | Some v -> Json.to_num v
          | None -> None
        in
        let ts = Option.get (num "ts") in
        Alcotest.(check bool) "ts >= 0" true (ts >= 0.);
        Alcotest.(check bool) "ts ascending" true (ts >= !prev);
        prev := ts;
        (match num "dur" with
        | Some dur -> Alcotest.(check bool) "dur >= 0" true (dur >= 0.)
        | None -> ()))
    events

let test_chrome_check_rejects () =
  (match Chrome.check "not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  match Chrome.check "{\"foo\": 1}" with
  | Ok _ -> Alcotest.fail "missing traceEvents accepted"
  | Error _ -> ()

(* --- JSON parser --------------------------------------------------------------- *)

let test_json_parse () =
  let j =
    Result.get_ok
      (Json.parse
         "{\"a\": [1, 2.5, -3e2], \"s\": \"q\\\"\\u0041\", \"t\": true, \
          \"n\": null}")
  in
  Alcotest.(check (option (list (pair string string)))) "structure"
    (Some [])
    (match j with Json.Obj _ -> Some [] | _ -> None);
  (match Json.member "a" j |> Option.get |> Json.to_arr with
  | Some [ x; y; z ] ->
    Alcotest.(check (option (float 1e-9))) "1" (Some 1.) (Json.to_num x);
    Alcotest.(check (option (float 1e-9))) "2.5" (Some 2.5) (Json.to_num y);
    Alcotest.(check (option (float 1e-9))) "-3e2" (Some (-300.)) (Json.to_num z)
  | _ -> Alcotest.fail "array");
  Alcotest.(check (option string)) "escapes" (Some "q\"A")
    (Json.member "s" j |> Option.get |> Json.to_str);
  (match Json.parse "{\"a\": 1} trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  match Json.parse "{\"a\": }" with
  | Ok _ -> Alcotest.fail "malformed accepted"
  | Error _ -> ()

let test_json_escape_roundtrip () =
  let s = "tab\t nl\n quote\" backslash\\ ctrl\x01" in
  match Json.parse ("\"" ^ Json.escape s ^ "\"") with
  | Ok (Json.Str s') -> Alcotest.(check string) "roundtrip" s s'
  | _ -> Alcotest.fail "escaped string does not parse"

let test_json_writer_format () =
  let v =
    Json.Obj
      [
        ("n", Json.Arr [ Json.Num 1.; Json.Num 2.5; Json.Num nan; Json.Num infinity ]);
        ("s", Json.Str "q\"\n\xc3\xa8");
        ("e", Json.Obj []);
        ("x", Json.Arr [ Json.Num (-.infinity); Json.Null; Json.Bool true ]);
      ]
  in
  Alcotest.(check string) "compact"
    "{\"n\":[1,2.5,null,1e999],\"s\":\"q\\\"\\n\xc3\xa8\",\"e\":{},\"x\":[-1e999,null,true]}"
    (Json.to_string v);
  Alcotest.(check string) "indented"
    "{\n  \"a\": [\n    1\n  ],\n  \"b\": []\n}"
    (Json.to_string ~indent:2
       (Json.Obj [ ("a", Json.Arr [ Json.Num 1. ]); ("b", Json.Arr []) ]));
  List.iter
    (fun (x, s) -> Alcotest.(check string) s s (Json.shortest x))
    [
      (0.1, "0.1");
      (0.1 +. 0.2, "0.30000000000000004");
      (82., "82");
      (-0., "-0");
      (1e15, "1e+15");
      (123456789012345., "123456789012345");
      (1.5e-7, "1.5e-07");
    ];
  Alcotest.(check string) "prom keeps its spellings"
    "# TYPE a gauge\na +Inf\n# TYPE b gauge\nb NaN\n# TYPE c gauge\nc 0.1\n"
    (fst
       (Prom.of_dump
          [ ("a", Metrics.Gauge infinity); ("b", Metrics.Gauge nan); ("c", Metrics.Gauge 0.1) ]))

(* Writer and parser agree on every value: any bytes in strings and keys,
   finite floats bit-exact, nan as null, and the compact form on one line
   (the JSONL event log depends on that). *)
let json_arb =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (0 -- 8) in
  let num =
    oneof
      [
        float;
        map float_of_int small_signed_int;
        oneofl [ nan; infinity; neg_infinity; -0.; 5e-324; max_float; 0.1 ];
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) num;
        map (fun s -> Json.Str s) bytes;
      ]
  in
  let value =
    sized_size (0 -- 12)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (0 -- 4) (self (n / 2))));
                 ( 1,
                   map (fun l -> Json.Obj l)
                     (list_size (0 -- 4) (pair bytes (self (n / 2)))) );
               ])
  in
  QCheck.make ~print:Json.to_string value

let rec json_expected = function
  | Json.Num f when Float.is_nan f -> Json.Null
  | Json.Arr l -> Json.Arr (List.map json_expected l)
  | Json.Obj l -> Json.Obj (List.map (fun (k, v) -> (k, json_expected v)) l)
  | v -> v

let rec json_same a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Json.Arr l, Json.Arr l' ->
    List.length l = List.length l' && List.for_all2 json_same l l'
  | Json.Obj l, Json.Obj l' ->
    List.length l = List.length l'
    && List.for_all2 (fun (k, v) (k', v') -> k = k' && json_same v v') l l'
  | _ -> a = b

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: parse (to_string v) = v" ~count:500 json_arb
    (fun v ->
      let compact = Json.to_string v in
      let back s = match Json.parse s with Ok j -> j | Error m -> failwith m in
      (not (String.contains compact '\n'))
      && json_same (back compact) (json_expected v)
      && json_same (back (Json.to_string ~indent:2 v)) (json_expected v))

(* --- metrics ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let c = Metrics.counter "test.obs.counter" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "counter" 42 (Metrics.value c);
  let c' = Metrics.counter "test.obs.counter" in
  Metrics.incr c';
  Alcotest.(check int) "same instrument by name" 43 (Metrics.value c);
  (match Metrics.gauge "test.obs.counter" with
  | _ -> Alcotest.fail "kind mismatch must raise"
  | exception Invalid_argument _ -> ());
  let h = Metrics.histogram ~bounds:[| 1.; 10. |] "test.obs.hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 50.; 500. ];
  let s = Metrics.hist_snapshot h in
  Alcotest.(check (array int)) "buckets" [| 1; 1; 2 |] s.Metrics.counts;
  Alcotest.(check int) "total" 4 s.Metrics.total

(* Exact values, hand-computed: counts [1; 2; 1] over bounds [10; 20; 30]
   with Prometheus-style linear interpolation inside the target bucket. *)
let test_quantile_exact () =
  let h = Metrics.histogram ~bounds:[| 10.; 20.; 30. |] "test.obs.quantile" in
  Alcotest.(check bool) "empty histogram has no quantile" true
    (Float.is_nan (Metrics.quantile (Metrics.hist_snapshot h) 0.5));
  List.iter (Metrics.observe h) [ 5.; 15.; 15.; 25. ];
  let q p = Metrics.quantile (Metrics.hist_snapshot h) p in
  (* rank = q * 4; the rank-2 sample sits halfway into bucket (10, 20]. *)
  Alcotest.(check (float 1e-9)) "q=0 is the distribution floor" 0. (q 0.);
  Alcotest.(check (float 1e-9)) "p25 = first bucket's edge" 10. (q 0.25);
  Alcotest.(check (float 1e-9)) "p50 interpolates mid-bucket" 15. (q 0.5);
  Alcotest.(check (float 1e-9)) "p75 lands on a bucket edge" 20. (q 0.75);
  Alcotest.(check (float 1e-9)) "p95 interpolates the last bucket" 28. (q 0.95);
  Alcotest.(check (float 1e-9)) "p100 = last edge" 30. (q 1.);
  Alcotest.(check (float 1e-9)) "out-of-range q clamps" 30. (q 2.);
  (* Overflow observations interpolate up to the max observed value
     instead of being clamped to the last finite bound. *)
  Metrics.observe h 1e9;
  Alcotest.(check (float 1e-9)) "overflow reaches the max observed" 1e9
    (Metrics.quantile (Metrics.hist_snapshot h) 1.)

(* Regression: a histogram fed values beyond its top bound must report a
   p99 strictly above that bound (the old quantile ignored the overflow
   bucket and silently clamped to bounds.(n-1)). Exact expected values:
   counts [0; 0; 8; 2] over bounds [10; 20; 30] with max observed 50. *)
let test_quantile_overflow_honest () =
  let h = Metrics.histogram ~bounds:[| 10.; 20.; 30. |] "test.obs.overflow" in
  for _ = 1 to 8 do
    Metrics.observe h 25.
  done;
  Metrics.observe h 50.;
  Metrics.observe h 50.;
  let s = Metrics.hist_snapshot h in
  Alcotest.(check (float 1e-9)) "max observed tracked" 50. s.Metrics.maxv;
  let q p = Metrics.quantile s p in
  Alcotest.(check (float 1e-9)) "p50 stays in a finite bucket" 26.25 (q 0.5);
  (* rank 9.9 sits 1.9/2 of the way into the overflow bucket (30, 50]. *)
  Alcotest.(check (float 1e-9)) "p99 interpolates past the top bound" 49.
    (q 0.99);
  Alcotest.(check bool) "p99 > top bound" true (q 0.99 > 30.);
  Alcotest.(check (float 1e-9)) "p100 = max observed" 50. (q 1.)

let test_summary_prints_percentiles () =
  let h = Metrics.histogram ~bounds:[| 1.; 2. |] "test.obs.summary_hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 1.5; 3. ];
  let out = Format.asprintf "%a" Hidet_obs.Summary.pp_metrics () in
  let contains needle =
    let n = String.length needle and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains needle))
    [ "p50="; "p95="; "p99=" ]

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Satellite: empty histograms render as n=0 (no nan quantiles) and
   non-empty ones print the tracked max. *)
let test_summary_max_and_empty () =
  let h = Metrics.histogram ~bounds:[| 1.; 2. |] "test.obs.summary_max" in
  List.iter (Metrics.observe h) [ 0.5; 3. ];
  let _ = Metrics.histogram ~bounds:[| 1. |] "test.obs.summary_empty" in
  let out = Format.asprintf "%a" Hidet_obs.Summary.pp_metrics () in
  let line name =
    match
      List.find_opt (fun l -> contains l name) (String.split_on_char '\n' out)
    with
    | Some l -> l
    | None -> Alcotest.failf "no summary line for %s" name
  in
  Alcotest.(check bool) "max printed" true (contains (line "summary_max") "max=3");
  let empty = line "summary_empty" in
  Alcotest.(check bool) "empty histogram reports n=0" true (contains empty "n=0");
  Alcotest.(check bool) "no nan quantiles" false (contains empty "nan")

(* --- labeled metrics ---------------------------------------------------------- *)

let test_labeled_names () =
  Alcotest.(check string) "canonical form, keys sorted"
    "serve.x{bucket=\"8\",model=\"m\"}"
    (Metrics.labeled_name "serve.x" [ ("model", "m"); ("bucket", "8") ]);
  Alcotest.(check string) "no labels = base name" "serve.x"
    (Metrics.labeled_name "serve.x" []);
  let bad labels =
    match Metrics.labeled_name "f" labels with
    | _ -> Alcotest.fail "invalid labels accepted"
    | exception Invalid_argument _ -> ()
  in
  bad [ ("le", "1") ];
  bad [ ("a", "1"); ("a", "2") ];
  bad [ ("9bad", "1") ];
  bad [ ("no-dash", "1") ];
  (* values needing escapes survive the name encoding and split back *)
  let v = "a\"b\\c\nd" in
  let base, labels = Metrics.split_labels (Metrics.labeled_name "f" [ ("k", v) ]) in
  Alcotest.(check string) "base splits back" "f" base;
  Alcotest.(check (list (pair string string))) "escaped value roundtrips"
    [ ("k", v) ] labels;
  Alcotest.(check (pair string (list (pair string string))))
    "malformed suffix tolerated, no labels"
    ("weird{", [])
    (Metrics.split_labels "weird{")

let test_labeled_instruments () =
  let c = Metrics.counter_labeled "test.obs.lbl" [ ("m", "a"); ("b", "1") ] in
  let c' = Metrics.counter_labeled "test.obs.lbl" [ ("b", "1"); ("m", "a") ] in
  Metrics.incr c;
  Metrics.incr c';
  Alcotest.(check int) "label order canonicalizes to one instrument" 2
    (Metrics.value c);
  let g = Metrics.gauge_labeled "test.obs.lblg" [ ("m", "a") ] in
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 0.)) "labeled gauge" 2.5 (Metrics.gauge_value g);
  let h = Metrics.histogram_labeled ~bounds:[| 1. |] "test.obs.lblh" [ ("m", "a") ] in
  Metrics.observe h 0.5;
  Alcotest.(check int) "labeled histogram" 1
    (Metrics.hist_snapshot h).Metrics.total;
  let names = List.map fst (Metrics.dump ()) in
  Alcotest.(check bool) "dump stays sorted with labeled names" true
    (List.sort compare names = names)

(* --- Prometheus exposition ---------------------------------------------------- *)

(* Hand-checked rendering of a tiny synthetic dump: one TYPE line per
   family even when label variants interleave with other names in sort
   order, cumulative buckets, +Inf == _count. *)
let test_prom_exposition () =
  let dump =
    [
      ("lat.ms",
        Metrics.Histogram
          {
            Metrics.bounds = [| 1.; 10. |];
            counts = [| 2; 1; 1 |];
            total = 4;
            sum = 17.5;
            maxv = 50.;
          });
      ("serve.requests", Metrics.Counter 5);
      ("serve.requests_total", Metrics.Counter 9);
      ("serve.requests{model=\"m\"}", Metrics.Counter 3);
      ("queue.depth", Metrics.Gauge 2.5);
    ]
  in
  let text, samples = Prom.of_dump dump in
  Alcotest.(check int) "sample count" 9 samples;
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " present") true (contains text (l ^ "\n")))
    [
      "# TYPE lat_ms histogram";
      "lat_ms_bucket{le=\"1\"} 2";
      "lat_ms_bucket{le=\"10\"} 3";
      "lat_ms_bucket{le=\"+Inf\"} 4";
      "lat_ms_sum 17.5";
      "lat_ms_count 4";
      "# TYPE serve_requests counter";
      "serve_requests 5";
      "serve_requests{model=\"m\"} 3";
      "# TYPE queue_depth gauge";
      "queue_depth 2.5";
    ];
  (* one TYPE line per family despite "serve.requests_total" sorting
     between the unlabeled and labeled serve.requests variants *)
  let type_lines =
    List.filter
      (fun l -> contains l "# TYPE serve_requests ")
      (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "family grouped under one TYPE line" 1
    (List.length type_lines);
  Alcotest.(check bool) "the interleaving family keeps its own TYPE" true
    (contains text "# TYPE serve_requests_total counter\n");
  match Prom.check text with
  | Error m -> Alcotest.fail ("validator rejects own exposition: " ^ m)
  | Ok n -> Alcotest.(check int) "validator counts samples" 9 n

let test_prom_check_rejects () =
  let bad name s =
    match Prom.check s with
    | Ok _ -> Alcotest.fail (name ^ " accepted")
    | Error _ -> ()
  in
  bad "sample without TYPE" "orphan 1\n";
  bad "duplicate sample" "# TYPE a counter\na 1\na 2\n";
  bad "duplicate TYPE" "# TYPE a counter\n# TYPE a gauge\na 1\n";
  bad "unquoted label value" "# TYPE a counter\na{k=v} 1\n";
  bad "unparseable value" "# TYPE a counter\na one\n";
  bad "histogram without buckets" "# TYPE h histogram\nh_sum 1\nh_count 1\n";
  bad "non-cumulative buckets"
    "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n";
  bad "missing +Inf bucket"
    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 0\nh_count 1\n";
  bad "+Inf disagrees with _count"
    "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 0\nh_count 3\n";
  bad "missing _sum"
    "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n";
  match
    Prom.check
      "# TYPE h histogram\nh_bucket{le=\"1\",m=\"x\\\"y\"} 1\nh_bucket{le=\"+Inf\",m=\"x\\\"y\"} 1\nh_sum{m=\"x\\\"y\"} 0.5\nh_count{m=\"x\\\"y\"} 1\n"
  with
  | Ok 4 -> ()
  | Ok n -> Alcotest.failf "escaped labels: %d samples" n
  | Error m -> Alcotest.fail ("escaped labels rejected: " ^ m)

(* --- lifecycle event log ------------------------------------------------------- *)

let ev ?(attrs = []) t rid kind = { Events.t; rid; kind; attrs }

let test_events_jsonl_roundtrip () =
  let evs =
    [
      ev 0.1 1 Events.Admitted ~attrs:[ ("client", "0"); ("deadline", "0.8") ];
      ev (0.1 +. 0.2) 1 Events.Batched ~attrs:[ ("bid", "0") ];
      ev 0.4 1 Events.Dispatched ~attrs:[ ("worker", "1") ];
      ev 0.5 1 Events.Completed ~attrs:[ ("miss", "0"); ("q", "a\"b\\c") ];
    ]
  in
  match Events.parse_jsonl (Events.to_jsonl evs) with
  | Error m -> Alcotest.fail ("roundtrip does not parse: " ^ m)
  | Ok back ->
    (* shortest round-trip timestamps make even 0.1 +. 0.2 exact *)
    Alcotest.(check bool) "events round-trip exactly" true (compare back evs = 0)

let test_events_ring_accounting () =
  let log = Events.create ~capacity:4 () in
  for i = 0 to 9 do
    Events.emit log (ev (float_of_int i) i Events.Admitted)
  done;
  let evs = Events.events log in
  Alcotest.(check (list int)) "last 4 retained, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Events.rid) evs);
  Alcotest.(check int) "total counts every emit" 10 (Events.total log);
  Alcotest.(check int) "dropped = total - retained" 6 (Events.dropped log);
  match Events.create ~capacity:0 () with
  | _ -> Alcotest.fail "zero capacity accepted"
  | exception Invalid_argument _ -> ()

let test_events_sort_deterministic () =
  let scrambled =
    [
      ev 0.5 1 Events.Verified;
      ev 0.5 1 Events.Completed;
      ev 0.5 1 Events.Executed;
      ev 0.2 1 Events.Admitted;
      ev 0.1 0 Events.Admitted;
      ev 0.3 1 Events.Dispatched;
      ev 0.3 1 Events.Batched;
    ]
  in
  let sorted = Events.sort_events scrambled in
  Alcotest.(check (list string)) "by (t, rid, lifecycle rank)"
    [ "admitted"; "admitted"; "batched"; "dispatched"; "completed"; "executed"; "verified" ]
    (List.map (fun e -> Events.kind_to_string e.Events.kind) sorted)

let lifecheck evs = Events.check (Events.to_jsonl evs)

let test_lifecycle_accepts () =
  let good =
    [
      ev 0.0 0 Events.Admitted;
      ev 0.1 0 Events.Batched ~attrs:[ ("bid", "0") ];
      ev 0.1 0 Events.Dispatched;
      ev 0.2 0 Events.Completed;
      ev 0.2 0 Events.Executed;
      ev 0.2 0 Events.Verified ~attrs:[ ("ok", "1") ];
      ev 0.05 1 Events.Rejected;
      ev 0.0 2 Events.Admitted;
      ev 0.3 2 Events.Shed;
    ]
  in
  match lifecheck (Events.sort_events good) with
  | Error m -> Alcotest.fail ("well-formed log rejected: " ^ m)
  | Ok (n, rids) ->
    Alcotest.(check int) "events counted" 9 n;
    Alcotest.(check int) "distinct requests counted" 3 rids

let test_lifecycle_rejects () =
  let bad name evs =
    match lifecheck evs with
    | Ok _ -> Alcotest.fail (name ^ " accepted")
    | Error _ -> ()
  in
  bad "no terminal event" [ ev 0. 0 Events.Admitted ];
  bad "first event not an admission decision"
    [ ev 0. 0 Events.Batched; ev 0.1 0 Events.Completed ];
  bad "two terminal events"
    [
      ev 0. 0 Events.Admitted;
      ev 0.1 0 Events.Batched;
      ev 0.1 0 Events.Dispatched;
      ev 0.2 0 Events.Completed;
      ev 0.3 0 Events.Completed;
    ];
  bad "rejected must be sole"
    [ ev 0. 0 Events.Rejected; ev 0.1 0 Events.Shed ];
  bad "shed after batching"
    [ ev 0. 0 Events.Admitted; ev 0.1 0 Events.Batched; ev 0.2 0 Events.Shed ];
  bad "completed without dispatch"
    [ ev 0. 0 Events.Admitted; ev 0.1 0 Events.Completed ];
  bad "executed before dispatch"
    [
      ev 0. 0 Events.Admitted;
      ev 0.1 0 Events.Executed;
      ev 0.2 0 Events.Batched;
      ev 0.2 0 Events.Dispatched;
      ev 0.3 0 Events.Completed;
    ];
  bad "timestamps regress within a request"
    [
      ev 0.5 0 Events.Admitted;
      ev 0.1 0 Events.Batched;
      ev 0.1 0 Events.Dispatched;
      ev 0.2 0 Events.Completed;
    ];
  match Events.check "not json\n" with
  | Ok _ -> Alcotest.fail "garbage line accepted"
  | Error _ -> ()

let test_flight_fires_once () =
  let f = Events.Flight.create ~capacity:8 () in
  for i = 0 to 11 do
    Events.Flight.record f
      (ev (float_of_int i /. 10.) (i mod 3) Events.Admitted)
  done;
  Alcotest.(check bool) "not fired before trigger" false (Events.Flight.fired f);
  Alcotest.(check bool) "dump absent before trigger" true
    (Events.Flight.dump f = None);
  let dumps0 = Metrics.value (Metrics.counter "obs.flight_dumps") in
  Alcotest.(check bool) "first trigger captures" true
    (Events.Flight.trigger f ~reason:"deadline_miss" ~rid:2 ~t:1.0 ());
  Alcotest.(check bool) "second trigger is a no-op" false
    (Events.Flight.trigger f ~reason:"verify_mismatch" ~rid:0 ~t:2.0 ());
  Alcotest.(check int) "exactly one dump counted" (dumps0 + 1)
    (Metrics.value (Metrics.counter "obs.flight_dumps"));
  match Events.Flight.dump f with
  | None -> Alcotest.fail "no dump after firing"
  | Some d ->
    let j =
      match Json.parse d with
      | Ok j -> j
      | Error m -> Alcotest.fail ("dump is not JSON: " ^ m)
    in
    let str k = Json.member k j |> Option.get |> Json.to_str in
    let arr k = Json.member k j |> Option.get |> Json.to_arr |> Option.get in
    Alcotest.(check (option string)) "first reason kept" (Some "deadline_miss")
      (str "reason");
    (* ring capacity 8 kept rids of emits 4..11: 1,2,0,1,2,0,1,2 *)
    Alcotest.(check int) "recent = retained ring" 8 (List.length (arr "recent"));
    Alcotest.(check int) "timeline filters the offending rid" 3
      (List.length (arr "timeline"));
    List.iter
      (fun e ->
        Alcotest.(check (option (float 0.))) "timeline entries carry rid 2"
          (Some 2.)
          (Json.member "rid" e |> Option.get |> Json.to_num))
      (arr "timeline")

(* The process-global sink: off by default, scoped on via with_log, and
   feeding both the log and the armed flight recorder. *)
let test_global_sink_scoped () =
  Alcotest.(check bool) "sink off by default" false (Events.enabled ());
  Events.record (ev 0. 0 Events.Admitted);
  let log = Events.create () in
  let x =
    Events.with_log log (fun () ->
        Alcotest.(check bool) "sink on inside with_log" true (Events.enabled ());
        Events.record (ev 0.5 7 Events.Admitted);
        17)
  in
  Alcotest.(check int) "with_log passes the result through" 17 x;
  Alcotest.(check bool) "sink off after with_log" false (Events.enabled ());
  Alcotest.(check int) "only the scoped emit landed" 1 (Events.total log);
  Alcotest.(check bool) "untripped flight_trip reports false" false
    (Events.flight_trip ~reason:"x" ~rid:0 ~t:0. ())

(* --- flow arcs in the Chrome export -------------------------------------------- *)

let test_flow_export_and_validator () =
  let (), evs =
    Trace.with_collector (fun () ->
        Trace.span "ctrl" (fun _ ->
            Trace.flow ~id:42 ~dir:Trace.Flow_start "serve.req");
        Trace.span "work" (fun _ ->
            Trace.flow ~id:42 ~dir:Trace.Flow_step "serve.req";
            Trace.flow ~id:42 ~dir:Trace.Flow_end "serve.req"))
  in
  let s = Chrome.to_string evs in
  (match Chrome.check s with
  | Error m -> Alcotest.fail ("flow export rejected: " ^ m)
  | Ok n -> Alcotest.(check int) "2 spans + 3 flow points" 5 n);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains s needle))
    [ "\"ph\":\"s\""; "\"ph\":\"t\""; "\"ph\":\"f\""; "\"id\":42"; "\"bp\":\"e\"" ];
  (* the start point must not carry the binding-point attribute *)
  Alcotest.(check bool) "start point has no bp" false
    (contains s "\"ph\":\"s\",\"id\":42,\"bp\"");
  match
    Chrome.check
      "{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"flow\",\"ph\":\"s\",\"pid\":1,\"tid\":0,\"ts\":1.0}]}"
  with
  | Ok _ -> Alcotest.fail "flow point without id accepted"
  | Error m ->
    Alcotest.(check bool) "error names the missing id" true
      (contains m "id")

(* --- tuning log TSV ------------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "hidet_obs" ".tsv" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_tuning_log_tsv () =
  let trials =
    [
      {
        Tlog.engine = "hidet";
        workload = "w\twith\ttabs";
        index = 0;
        config = "cfg";
        outcome = Tlog.Measured;
        latency = 1.5e-6;
        proposer = Tlog.Exhaustive;
      };
      {
        Tlog.engine = "ansor";
        workload = "w2";
        index = 1;
        config = "";
        outcome = Tlog.Rejected;
        latency = infinity;
        proposer = Tlog.Mutation;
      };
    ]
  in
  with_temp_file (fun path ->
      Tlog.save_tsv path trials;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check int) "header + 2 records" 3 (List.length lines);
      Alcotest.(check string) "header"
        "engine\tworkload\tindex\tconfig\toutcome\tlatency_us\tproposer"
        (List.hd lines);
      let fields l = String.split_on_char '\t' l in
      Alcotest.(check int) "sanitized record width" 7
        (List.length (fields (List.nth lines 1)));
      Alcotest.(check string) "rejected latency sentinel" "-1.000"
        (List.nth (fields (List.nth lines 2)) 5);
      Alcotest.(check string) "proposer is the last column" "mutation"
        (List.nth (fields (List.nth lines 2)) 6);
      let row1 = fields (List.nth lines 1) in
      Alcotest.(check string) "workload sanitized" "w with tabs" (List.nth row1 1);
      Alcotest.(check string) "latency in microseconds" "1.500" (List.nth row1 5);
      Alcotest.(check string) "exhaustive proposer" "exhaustive" (List.nth row1 6))

let () =
  Alcotest.run "hidet_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting and containment" `Quick
            test_span_nesting;
          Alcotest.test_case "error attribute on raise" `Quick
            test_span_error_attr;
          Alcotest.test_case "noop recorder is allocation-light" `Quick
            test_noop_allocation_light;
          Alcotest.test_case "domains: tracks and counter sums" `Quick
            test_domains_tracks_and_counters;
        ] );
      ( "tuner",
        [
          Alcotest.test_case "per-candidate spans and log records" `Quick
            test_tuner_spans_and_log;
          Alcotest.test_case "one compile: spans, counters, log agree" `Quick
            test_compile_counters_agree;
          QCheck_alcotest.to_alcotest prop_parallel_counter_parity;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "export parses and validates" `Quick
            test_chrome_json_valid;
          Alcotest.test_case "ts/dur consistent" `Quick test_chrome_ts_consistent;
          Alcotest.test_case "validator rejects malformed" `Quick
            test_chrome_check_rejects;
          Alcotest.test_case "flow arcs export and validate" `Quick
            test_flow_export_and_validator;
        ] );
      ( "json",
        [
          Alcotest.test_case "parser" `Quick test_json_parse;
          Alcotest.test_case "escape roundtrip" `Quick test_json_escape_roundtrip;
          Alcotest.test_case "writer format" `Quick test_json_writer_format;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "quantile exact values" `Quick test_quantile_exact;
          Alcotest.test_case "overflow bucket reported honestly" `Quick
            test_quantile_overflow_honest;
          Alcotest.test_case "summary prints percentiles" `Quick
            test_summary_prints_percentiles;
          Alcotest.test_case "summary max and empty histograms" `Quick
            test_summary_max_and_empty;
          Alcotest.test_case "labeled names canonical and reversible" `Quick
            test_labeled_names;
          Alcotest.test_case "labeled instruments" `Quick
            test_labeled_instruments;
        ] );
      ( "prom",
        [
          Alcotest.test_case "exposition hand-checked" `Quick
            test_prom_exposition;
          Alcotest.test_case "validator rejects malformed" `Quick
            test_prom_check_rejects;
        ] );
      ( "events",
        [
          Alcotest.test_case "jsonl roundtrip" `Quick test_events_jsonl_roundtrip;
          Alcotest.test_case "ring drop accounting" `Quick
            test_events_ring_accounting;
          Alcotest.test_case "deterministic sort order" `Quick
            test_events_sort_deterministic;
          Alcotest.test_case "lifecycle validator accepts" `Quick
            test_lifecycle_accepts;
          Alcotest.test_case "lifecycle validator rejects" `Quick
            test_lifecycle_rejects;
          Alcotest.test_case "flight recorder fires once" `Quick
            test_flight_fires_once;
          Alcotest.test_case "global sink is scoped" `Quick
            test_global_sink_scoped;
        ] );
      ("tuning log", [ Alcotest.test_case "tsv export" `Quick test_tuning_log_tsv ]);
    ]
