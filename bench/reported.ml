(* The five infrastructure experiments (simulator backends, serving,
   sharding, tuner search, cycle fidelity): each returns its report, which
   Report.drive prints and writes as BENCH_<name>.json, and gates on the
   report alone. *)

module Json = Hidet_obs.Json
module R = Report
module HE = Hidet.Hidet_engine
module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module MT = Hidet_sched.Matmul_template
module Tu = Hidet_sched.Tuner
module C = Hidet_sched.Compiled

let dev = Hidet_gpu.Device.rtx3090
let us s = s *. 1e6
let sprintf = Printf.sprintf
let shape_name (m, n, k) = sprintf "%dx%dx%d" m n k

(* ------------------------------------------------------------------ *)
(* Simulator backends: legacy tree-walking vs closure-compiled         *)
(* ------------------------------------------------------------------ *)

(* Per kernel class, summed over the hidet engine's plans of the four tiny
   models (the kernels [exec_tiny] runs): the 20 matmuls, the row and
   reduce kernels whose barriers sit in combine trees, and the rule
   kernels, which have no barrier. Each kernel runs alone on random
   inputs, one worker; after a warm launch per backend and a compaction,
   closure and native launches alternate and each backend's time is its
   fastest. *)
let kernel_classes ~quick ~native_ok =
  let module Metrics = Hidet_obs.Metrics in
  let module Launch = Hidet_gpu.Launch in
  let module Kernel = Hidet_ir.Kernel in
  let stmt_counter = Metrics.counter "sim.statements" in
  let launches = if quick then 5 else 200 in
  let kernels =
    List.concat_map
      (fun (_, mk) ->
        let plan, _ = HE.compile_plan dev (mk ()) in
        List.concat_map
          (fun (s : Hidet_runtime.Plan.step) -> s.compiled.C.kernels)
          plan.Hidet_runtime.Plan.steps)
      Hidet_models.Models.tiny_all
  in
  let class_of (k : Kernel.t) =
    if String.starts_with ~prefix:"matmul" k.name then "matmul"
    else if Launch.has_sync k.body then "combine_tree"
    else "rule"
  in
  let classes = [ "matmul"; "combine_tree"; "rule" ] in
  (* class -> kernels, statements, closure and native seconds *)
  let sums = Hashtbl.create 3 in
  List.iter (fun c -> Hashtbl.replace sums c (0, 0, 0., 0.)) classes;
  List.iteri
    (fun i (k : Kernel.t) ->
      let rng = Random.State.make [| i |] in
      let bindings =
        List.map
          (fun (b : Hidet_ir.Buffer.t) ->
            ( b,
              Array.init (Hidet_ir.Buffer.num_elems b) (fun _ ->
                  Random.State.float rng 2. -. 1.) ))
          k.params
      in
      let closure = Hidet_gpu.Compile_exec.compile k in
      let native = if native_ok then Some (Hidet_gpu.Exec_ocaml.compile k) else None in
      let launch c =
        let t0 = Unix.gettimeofday () in
        Launch.run_compiled ~workers:1 c bindings;
        Unix.gettimeofday () -. t0
      in
      let before = Metrics.value stmt_counter in
      ignore (launch closure);
      let stmts = Metrics.value stmt_counter - before in
      Option.iter (fun c -> ignore (launch c)) native;
      Gc.compact ();
      let best_closure = ref infinity and best_native = ref infinity in
      for _ = 1 to launches do
        best_closure := Float.min !best_closure (launch closure);
        Option.iter (fun c -> best_native := Float.min !best_native (launch c)) native
      done;
      let c = class_of k in
      let n, st, tc, tn = Hashtbl.find sums c in
      Hashtbl.replace sums c (n + 1, st + stmts, tc +. !best_closure, tn +. !best_native))
    kernels;
  List.map
    (fun c ->
      let n, stmts, closure_s, native_s = Hashtbl.find sums c in
      let per_stmt s = Json.Num (s *. 1e9 /. float_of_int (max 1 stmts)) in
      Json.Obj
        ([
           ("class", Json.Str c);
           ("kernels", R.int n);
           ("statements", R.int stmts);
           ("closure_s", Json.Num closure_s);
           ("closure_ns_per_stmt", per_stmt closure_s);
         ]
        @
        if native_ok then
          [ ("native_s", Json.Num native_s); ("native_ns_per_stmt", per_stmt native_s) ]
        else [ ("native_s", Json.Null) ]))
    classes
  |> fun rows -> (launches, rows)

let interp_run ~quick =
  let module Metrics = Hidet_obs.Metrics in
  let module T = Hidet_tensor.Tensor in
  let stmt_counter = Metrics.counter "sim.statements" in
  let native_ok =
    match Hidet_gpu.Exec_ocaml.available () with
    | Ok () -> true
    | Error _ -> false
  in
  let matmul =
    let m = 123 and n = 77 and k = 45 in
    ( Printf.sprintf "quickstart_matmul_%dx%dx%d" m n k,
      MT.compile ~m ~n ~k MT.default_config,
      [ T.rand ~seed:3 [ 1; m; k ]; T.rand ~seed:4 [ k; n ] ] )
  in
  let fused_conv =
    let x_shape = [ 1; 8; 14; 14 ] and w_shape = [ 16; 8; 3; 3 ] in
    let def =
      Op.to_def (Op.Conv2d { stride = 1; pad_h = 1; pad_w = 1 })
        [ x_shape; w_shape ]
    in
    let anchor = Hidet_sched.Rule_based.schedule def in
    let relu = Op.to_def (Op.Unary Op.Relu) [ [ 1; 16; 14; 14 ] ] in
    ( "fused_conv_relu_1x8x14x14_oc16_k3",
      Hidet_fusion.Fuse.fuse_epilogue anchor relu,
      [ T.rand ~seed:5 x_shape; T.rand ~seed:6 w_shape ] )
  in
  let time reps f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let once f = time 1 f in
  let rows =
    List.map
      (fun (name, c, inputs) ->
        (* A warm run (also JIT/allocator warm-up) yields the per-launch
           statement count; all backends execute the same statements, so one
           count serves every throughput figure. *)
        let before = Metrics.value stmt_counter in
        ignore (C.run c inputs);
        let stmts = Metrics.value stmt_counter - before in
        let wall_legacy =
          time (if quick then 1 else 3) (fun () -> C.run ~legacy:true c inputs)
        in
        (* The native warm run pays codegen + ocamlopt + dynlink once; the
           timed runs below hit the per-process memo, which is the steady
           state the backend exists for. Closure and native launches then
           alternate, and each backend's time is its fastest launch: what
           ran before in the process, or a burst of other load, slows both
           backends alike or shows as a slow launch the minimum drops. The
           fused Conv-ReLU's launches keep getting faster past the tenth
           (its closure minimum over 10 launches ranged 1.2-2.5e7
           statements/s, over 30 2.2-2.5e7), so full mode takes 30. *)
        if native_ok then ignore (C.run ~backend:`Native c inputs);
        let wall_compiled = ref infinity and wall_native = ref infinity in
        for _ = 1 to if quick then 5 else 30 do
          wall_compiled := Float.min !wall_compiled (once (fun () -> C.run c inputs));
          if native_ok then
            wall_native :=
              Float.min !wall_native
                (once (fun () -> C.run ~backend:`Native c inputs))
        done;
        let wall_compiled = !wall_compiled in
        let native_sps =
          if native_ok then Some (float_of_int stmts /. !wall_native) else None
        in
        let legacy_sps = float_of_int stmts /. wall_legacy in
        let compiled_sps = float_of_int stmts /. wall_compiled in
        let speedup = compiled_sps /. legacy_sps in
        Json.Obj
          ([
             ("name", Json.Str name);
             ("statements_per_launch", R.int stmts);
             ("legacy_wall_s", Json.Num wall_legacy);
             ("compiled_wall_s", Json.Num wall_compiled);
             ("legacy_stmts_per_s", Json.Num legacy_sps);
             ("compiled_stmts_per_s", Json.Num compiled_sps);
           ]
          @ (match native_sps with
            | None -> [ ("native_stmts_per_s", Json.Null) ]
            | Some n ->
              [
                ("native_stmts_per_s", Json.Num n);
                ("native_vs_compiled", Json.Num (n /. compiled_sps));
              ])
          @ [ ("speedup", Json.Num speedup) ]))
      [ matmul; fused_conv ]
  in
  let launches, classes = kernel_classes ~quick ~native_ok in
  Json.Obj
    [
      ("experiment", Json.Str "interp");
      ("quick", Json.Bool quick);
      ("native_available", Json.Bool native_ok);
      ("workloads", Json.Arr rows);
      ("tiny_kernel_launches", R.int launches);
      ("tiny_kernel_classes", Json.Arr classes);
    ]

(* The compiled backend exists to be faster than the tree walker, and the
   native backend to be faster than the closure compiler (on the matmul
   quickstart, where the ocamlopt cost is amortized by the memo). *)
let interp_gates r =
  List.concat_map
    (fun w ->
      let name = R.str "name" w and compiled = R.num "compiled_stmts_per_s" w in
      ( sprintf "compiled backend must not be slower than legacy on %s" name,
        compiled >= R.num "legacy_stmts_per_s" w )
      ::
      (match Json.member "native_stmts_per_s" w with
      | Some (Json.Num n) when String.starts_with ~prefix:"quickstart_matmul" name
        ->
        [
          ( sprintf
              "native backend must beat the closure backend on %s (native \
               %.3g st/s vs compiled %.3g st/s)"
              name n compiled,
            n > compiled );
        ]
      | _ -> []))
    (R.list "workloads" r)

let interp =
  {
    R.name = "interp";
    title = "legacy tree-walking vs closure-compiled vs native execution";
    run = interp_run;
    gates = interp_gates;
  }

(* ------------------------------------------------------------------ *)
(* Serving: throughput and tail latency vs offered load                *)
(* ------------------------------------------------------------------ *)

let serve_run ~quick =
  let module S = Hidet_serve in
  let buckets = [ 1; 2; 4; 8 ] and workers = 2 in
  let model =
    S.Registry.load
      ~engine:(module HE)
      ~device:dev ~buckets (S.Registry.Zoo "tiny_cnn")
  in
  let deadline = 0.3 and scale = 2000. and seed = 11 in
  let cfg batching =
    {
      S.Server.batcher =
        { S.Batcher.buckets; max_wait = 0.02; queue_cap = 48; batching };
      workers;
      max_inflight = 2;
      service_scale = scale;
    }
  in
  let duration = if quick then 1.5 else 4.0 in
  let rates = if quick then [ 30.; 120.; 360. ] else [ 20.; 60.; 120.; 240.; 480. ] in
  (* The sweep runs in virtual time only: the schedule (batch compositions,
     shed sets, latency percentiles) is exact and free; real execution is
     covered by the verified point below. *)
  let point batching rps =
    let lg =
      {
        S.Loadgen.profile = S.Loadgen.Open_loop { rps };
        duration;
        deadline;
        burst = None;
        seed;
      }
    in
    let sched =
      S.Server.simulate (cfg batching) ~latency:(S.Registry.latency model) lg
    in
    let s = S.Server.stats sched and slo = S.Server.slo_verdict ~duration sched in
    Json.Obj
      [
        ("rps", Json.Num rps);
        ("batching", Json.Bool batching);
        ("stats", S.Server.stats_to_json s);
        ("slo", S.Slo.verdict_to_json slo);
      ]
  in
  let sweep =
    List.concat_map
      (fun rps ->
        let batched = point true rps in
        [ batched; point false rps ])
      rates
  in
  (* One short run with real execution: every served response must be
     bit-identical to running its request alone through the batch-1 plan. *)
  let exec_lg =
    {
      S.Loadgen.profile = S.Loadgen.Open_loop { rps = 40. };
      duration = (if quick then 0.5 else 1.0);
      deadline;
      burst = None;
      seed;
    }
  in
  let exec_report = S.Server.run (cfg true) model exec_lg in
  let responses = List.length exec_report.S.Server.responses in
  let exec_mismatches = Option.value exec_report.S.Server.mismatches ~default:(-1) in
  (* An admitted request waits at most the deadline, then runs in at most
     the largest bucket's scaled service time. *)
  let tail_bound = deadline +. (S.Registry.latency model 8 *. scale) in
  Json.Obj
    [
      ("experiment", Json.Str "serve");
      ("quick", Json.Bool quick);
      ("model", Json.Str "tiny_cnn");
      ("engine", Json.Str "hidet");
      ("seed", R.int seed);
      ("deadline_ms", Json.Num (deadline *. 1e3));
      ("service_scale", Json.Num scale);
      ("workers", R.int workers);
      ("buckets", Json.Arr (List.map R.int buckets));
      ("tail_bound_ms", Json.Num (Json.round_sig 9 (tail_bound *. 1e3)));
      ("sweep", Json.Arr sweep);
      ( "exec_check",
        Json.Obj
          [ ("responses", R.int responses); ("mismatches", R.int exec_mismatches) ]
      );
    ]

let serve_gates r =
  let sweep = R.list "sweep" r in
  let rps row = R.num "rps" row in
  let lo = List.fold_left (fun a row -> Float.min a (rps row)) infinity sweep
  and hi = List.fold_left (fun a row -> Float.max a (rps row)) 0. sweep in
  let find batching at =
    let row = List.find (fun x -> R.bool "batching" x = batching && rps x = at) sweep in
    (R.field "stats" row, List.exists (R.bool "fired") (R.list "alerts" (R.field "slo" row)))
  in
  let low, low_fired = find true lo in
  let hi_b, hi_fired = find true hi and hi_n, _ = find false hi in
  let p99 = R.num "e2e_p99_ms" hi_b and bound = R.num "tail_bound_ms" r in
  let exec = R.field "exec_check" r in
  [
    ( "batched serving at low load must meet the deadline for every request",
      R.num "shed" low = 0.
      && R.num "rejected" low = 0.
      && R.num "deadline_miss" low = 0. );
    ("no burn-rate alert may fire at low load", not low_fired);
    ("overload must fire a burn-rate alert (budget is burning)", hi_fired);
    ( "at saturation, dynamic batching must out-serve batch-1 dispatch",
      R.num "throughput_rps" hi_b > R.num "throughput_rps" hi_n *. 2. );
    ("overload must actually coalesce requests into batches", R.num "mean_batch" hi_b > 1.);
    ("overload must shed requests that cannot meet their deadline", R.num "shed" hi_b > 0.);
    ("overload must exert backpressure at the bounded queue", R.num "rejected" hi_b > 0.);
    ( sprintf "admitted p99 must stay bounded under overload (%.1f ms > %.1f ms)" p99
        bound,
      p99 <= bound +. 1e-6 );
    ( "every executed response must match the batch-1 plan bit for bit",
      R.num "responses" exec > 0. && R.num "mismatches" exec = 0. );
  ]

let serve =
  {
    R.name = "serve";
    title = "dynamic batching vs batch-1 under offered load";
    run = serve_run;
    gates = serve_gates;
  }

(* ------------------------------------------------------------------ *)
(* Sharding: tensor/pipeline parallelism under the cluster cost model  *)
(* ------------------------------------------------------------------ *)

let shard_run ~quick:_ =
  let module Shard = Hidet_shard.Shard in
  let module Cluster = Hidet_gpu.Cluster in
  (* Tensor parallelism: one large matmul whose per-device compute dwarfs
     the collective epilogue, so splitting it should approach linear. *)
  let tp_m = 1024 and tp_n = 1024 and tp_k = 4096 in
  let tp_graph () =
    let g = G.create () in
    G.name g (Printf.sprintf "tp_matmul_%dx%dx%d" tp_m tp_n tp_k);
    let a = G.input g [ 1; tp_m; tp_k ] in
    let w = G.constant_rand g ~seed:21 [ tp_k; tp_n ] in
    G.set_outputs g [ G.matmul g a w ];
    g
  in
  (* Pipeline parallelism: a deep chain of equal-cost stages, batch large
     enough to stream microbatches through. *)
  let pp_layers = 8 and pp_b = 128 and pp_d = 1024 in
  let staged_graph () =
    let g = G.create () in
    G.name g (Printf.sprintf "staged_mlp_%dx%d" pp_layers pp_d);
    let x = G.input g [ pp_b; 32; pp_d ] in
    let h = ref x in
    for i = 1 to pp_layers do
      let w = G.constant_rand g ~seed:(30 + i) [ pp_d; pp_d ] in
      h := G.relu g (G.matmul g !h w)
    done;
    G.set_outputs g [ !h ];
    g
  in
  let row name strategy devices g =
    let e = Shard.estimate (Shard.plan ~strategy (Cluster.homogeneous ~n:devices dev) g) in
    Json.Obj
      [
        ("graph", Json.Str name);
        ("strategy", Json.Str (Shard.strategy_to_string strategy));
        ("devices", R.int devices);
        ( "estimate",
          Json.Obj
            [
              ("devices", R.int e.Shard.devices);
              ("compute_s", Json.Num e.Shard.compute);
              ("comm_s", Json.Num e.Shard.comm);
              ("total_s", Json.Num e.Shard.total);
              ("baseline_s", Json.Num e.Shard.baseline);
              ("speedup", Json.Num e.Shard.speedup);
            ] );
      ]
  in
  let tp_rows =
    List.concat_map
      (fun devices ->
        List.map
          (fun strategy -> row "tp_matmul" strategy devices (tp_graph ()))
          [ Shard.Tensor Shard.Gather; Shard.Tensor Shard.Reduce ])
      [ 2; 4 ]
  in
  let pp_strategy = Shard.Pipeline { microbatches = 4 } in
  let pp_rows =
    List.map
      (fun devices -> row "staged_mlp" pp_strategy devices (staged_graph ()))
      [ 2; 4 ]
  in
  (* Small executed equivalence points: the cost-model rows above never
     run; these do, and must meet each strategy's contract (bit-exact, or
     the tensor-reduce ULP budget). *)
  let small_mm () =
    let g = G.create () in
    G.name g "small_matmul_48x64x128";
    let a = G.input g [ 4; 48; 128 ] in
    let w = G.constant_rand g ~seed:23 [ 128; 64 ] in
    G.set_outputs g [ G.matmul g a w ];
    g
  in
  let small_mlp () =
    let g = G.create () in
    G.name g "small_mlp_4x32";
    let x = G.input g [ 8; 8; 32 ] in
    let h = ref x in
    for i = 1 to 4 do
      let w = G.constant_rand g ~seed:(40 + i) [ 32; 32 ] in
      h := G.relu g (G.matmul g !h w)
    done;
    G.set_outputs g [ !h ];
    g
  in
  let verify_point name strategy g =
    let cl = Cluster.homogeneous ~n:2 dev in
    let shard = Shard.plan ~strategy cl g in
    let inputs =
      List.mapi
        (fun i id -> Hidet_tensor.Tensor.rand ~seed:(59 + i) (G.node_shape g id))
        (G.input_ids g)
    in
    let ok, msg =
      match Shard.verify shard inputs with
      | Ok msg -> (true, msg)
      | Error msg -> (false, msg)
    in
    Json.Obj
      [
        ("graph", Json.Str name);
        ("strategy", Json.Str (Shard.strategy_to_string strategy));
        ("ok", Json.Bool ok);
        ("detail", Json.Str msg);
      ]
  in
  let verifies =
    [
      verify_point "small_matmul" Shard.Data (small_mm ());
      verify_point "small_matmul" (Shard.Tensor Shard.Gather) (small_mm ());
      verify_point "small_matmul" (Shard.Tensor Shard.Reduce) (small_mm ());
      verify_point "small_mlp" (Shard.Pipeline { microbatches = 4 }) (small_mlp ());
    ]
  in
  Json.Obj
    [
      ("experiment", Json.Str "shard");
      ( "link",
        Json.Obj
          [
            ("name", Json.Str "nvlink");
            ("latency_s", Json.Num Cluster.nvlink.Cluster.latency);
            ("bandwidth_Bps", Json.Num Cluster.nvlink.Cluster.bandwidth);
          ] );
      ("sweep", Json.Arr (tp_rows @ pp_rows));
      ("verify", Json.Arr verifies);
    ]

let shard_gates r =
  let sweep = R.list "sweep" r in
  let estimate k row = R.num k (R.field "estimate" row) in
  let best graph devices =
    List.fold_left
      (fun acc row ->
        if R.str "graph" row = graph && R.num "devices" row = float_of_int devices
        then Float.max acc (estimate "speedup" row)
        else acc)
      0. sweep
  in
  let s2 = best "tp_matmul" 2 and s4 = best "tp_matmul" 4 in
  let pp2 = best "staged_mlp" 2 in
  [
    ( sprintf "tensor-parallel matmul must reach >= 1.6x at 2 devices (got %.2fx)" s2,
      s2 >= 1.6 );
    ( sprintf
        "tensor-parallel speedup must keep scaling at 4 devices (%.2fx <= %.2fx)"
        s4 s2,
      s4 > s2 );
    (sprintf "pipeline must beat single-device on the staged DAG (got %.2fx)" pp2, pp2 > 1.0);
    ( "every multi-device plan must be billed a nonzero collective cost",
      List.for_all (fun row -> estimate "comm_s" row > 0.) sweep );
  ]
  @ List.map
      (fun v ->
        ( sprintf "executed equivalence must hold for %s/%s: %s" (R.str "graph" v)
            (R.str "strategy" v) (R.str "detail" v),
          R.bool "ok" v ))
      (R.list "verify" r)

let shard =
  {
    R.name = "shard";
    title = "multi-device partitioning under the interconnect cost model";
    run = shard_run;
    gates = shard_gates;
  }

(* ------------------------------------------------------------------ *)
(* Branch-and-bound vs exhaustive search under both latency models     *)
(* ------------------------------------------------------------------ *)

(* The interp quickstart matmul, two Table 1 GEMMs, the bandwidth-bound
   GEMM of the widened gate, and four zoo-like shapes (tiny, cubic, a BERT
   FFN and a low-parallelism ResNet GEMM). *)
let tune_shapes =
  [
    (123, 77, 45);
    (1024, 1024, 1024);
    (512, 512, 4096);
    (2048, 2048, 64);
    (64, 49, 32);
    (256, 256, 256);
    (768, 3072, 768);
    (49, 512, 4608);
  ]

let fidelities = [ ("analytic", `Analytic); ("cycle", `Cycle) ]

(* Quick mode strides a space down to <= 48 candidates: both searches (or
   both rankings) still run over the same configs, just fewer of them. *)
let strided ~quick all =
  if not quick then all
  else
    let stride = max 1 (List.length all / 48) in
    List.filteri (fun i _ -> i mod stride = 0) all

let tune_run ~quick =
  let module Space = Hidet_sched.Space in
  let tune ?fidelity ?lower_bound ~m ~n ~k candidates =
    match
      Tu.tune ?fidelity ?lower_bound ~device:dev
        ~candidates:(Array.of_list candidates) ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg)
        ()
    with
    | Some (cfg, _, st) -> (cfg, st)
    | None -> failwith "bench tune: no feasible schedule"
  in
  let side (cfg, (st : Tu.stats)) =
    Json.Obj
      [
        ("trials", R.int st.Tu.trials);
        ("pruned", R.int st.Tu.pruned);
        ("best_config", Json.Str (MT.config_to_string cfg));
        ("best_latency_us", Json.Num (us st.Tu.best_latency));
        ("simulated_seconds", Json.Num st.Tu.simulated_seconds);
        ("wall_s", Json.Num st.Tu.wall_seconds);
      ]
  in
  let rows =
    List.map
      (fun (m, n, k) ->
        let candidates = strided ~quick (Space.matmul_with_split_k ~m ~n) in
        let by_fidelity (name, fidelity) =
          let lower_bound =
            match fidelity with
            | `Analytic -> MT.lower_bound dev ~m ~n ~k
            | `Cycle ->
              Tu.cycle_lower_bound dev ~compile:(fun cfg ->
                  MT.compile ~m ~n ~k cfg)
          in
          let ex = tune ~fidelity ~m ~n ~k candidates in
          let bb = tune ~fidelity ~lower_bound ~m ~n ~k candidates in
          (name, Json.Obj [ ("exhaustive", side ex); ("bnb", side bb) ])
        in
        Json.Obj
          ([
             ("shape", Json.Str (shape_name (m, n, k)));
             ("candidates", R.int (List.length candidates));
           ]
          @ List.map by_fidelity fidelities))
      tune_shapes
  in
  (* The widened dimensions must pay for themselves: on a bandwidth-bound
     GEMM (large output, tiny k) the best schedule of the full space must
     beat the best of the pre-widening space (no swizzle, stages <= 2). *)
  let bm, bn, bk = (2048, 2048, 64) in
  let widened = Space.matmul_with_split_k ~m:bm ~n:bn in
  let old_space =
    List.filter
      (fun (c : MT.config) -> (not c.MT.swizzle) && c.MT.stages <= 2)
      widened
  in
  let wcfg, wst = tune ~m:bm ~n:bn ~k:bk widened in
  let ocfg, ost = tune ~m:bm ~n:bn ~k:bk old_space in
  let gain = ost.Tu.best_latency /. wst.Tu.best_latency in
  Json.Obj
    [
      ("experiment", Json.Str "tune");
      ("quick", Json.Bool quick);
      ("shapes", Json.Arr rows);
      ( "widened_gate",
        Json.Obj
          [
            ("shape", Json.Str (shape_name (bm, bn, bk)));
            ("old_best_config", Json.Str (MT.config_to_string ocfg));
            ("old_best_latency_us", Json.Num (us ost.Tu.best_latency));
            ("widened_best_config", Json.Str (MT.config_to_string wcfg));
            ("widened_best_latency_us", Json.Num (us wst.Tu.best_latency));
            ("gain", Json.Num gain);
          ] );
    ]

(* Cycle-model trials must fall at least this much against exhaustive
   search, summed over the shapes. Quick mode's strided spaces hold ~50
   candidates, of which the first four steps (1 + 2 + 4 + 8) are measured
   before a threshold can skip anything, so it asks for less. *)
let min_trial_reduction ~quick = if quick then 2. else 4.

let tune_gates r =
  let w = R.field "widened_gate" r in
  let winner = R.str "widened_best_config" w in
  let shapes = R.list "shapes" r in
  let search s fid mode = R.field mode (R.field fid s) in
  let trials fid mode =
    List.fold_left
      (fun acc s -> acc +. R.num "trials" (search s fid mode))
      0. shapes
  in
  let reduction = trials "cycle" "exhaustive" /. trials "cycle" "bnb" in
  let min_reduction = min_trial_reduction ~quick:(R.bool "quick" r) in
  List.concat_map
    (fun s ->
      List.map
        (fun (fid, _) ->
          let ex = search s fid "exhaustive" and bb = search s fid "bnb" in
          ( sprintf
              "branch-and-bound must return the exhaustive winner under %s on \
               %s (%s %.6g us vs %s %.6g us)"
              fid (R.str "shape" s) (R.str "best_config" bb)
              (R.num "best_latency_us" bb) (R.str "best_config" ex)
              (R.num "best_latency_us" ex),
            R.str "best_config" bb = R.str "best_config" ex
            && R.num "best_latency_us" bb = R.num "best_latency_us" ex
            && R.num "simulated_seconds" bb = R.num "simulated_seconds" ex ))
        fidelities)
    shapes
  @ [
      ( sprintf
          "cycle-model branch-and-bound must measure >= %gx fewer candidates \
           than exhaustive search (got %.2fx)"
          min_reduction reduction,
        reduction >= min_reduction );
      ( "a widened-space schedule must beat the pre-widening best on the \
         bandwidth-bound GEMM",
        R.num "widened_best_latency_us" w < R.num "old_best_latency_us" w );
      ( sprintf "the bandwidth-bound winner must use a widened dimension (got %s)"
          winner,
        (* Printed tokens: swizzle is "swz", a 3/4-stage pipeline "s3"/"s4". *)
        List.exists
          (fun t -> List.mem t [ "s3"; "s4"; "swz" ])
          (String.split_on_char '_' winner) );
    ]

let tune =
  {
    R.name = "tune";
    title = "branch-and-bound vs exhaustive search under both latency models";
    run = tune_run;
    gates = tune_gates;
  }

(* ------------------------------------------------------------------ *)
(* Cycle-approximate fidelity vs the analytic ranking                  *)
(* ------------------------------------------------------------------ *)

(* Spearman rank correlation with average ranks for ties (Pearson on the
   rank vectors). 1.0 for degenerate inputs (n < 2 or a constant vector —
   a constant ranking cannot contradict the other one). *)
let spearman xs ys =
  let n = Array.length xs in
  if n < 2 then 1.
  else begin
    let ranks v =
      let idx = Array.init n (fun i -> i) in
      Array.sort (fun a b -> compare v.(a) v.(b)) idx;
      let r = Array.make n 0. in
      let i = ref 0 in
      while !i < n do
        let j = ref !i in
        while !j < n - 1 && v.(idx.(!j + 1)) = v.(idx.(!i)) do
          incr j
        done;
        let avg = (float_of_int (!i + !j) /. 2.) +. 1. in
        for t = !i to !j do
          r.(idx.(t)) <- avg
        done;
        i := !j + 1
      done;
      r
    in
    let rx = ranks xs and ry = ranks ys in
    let mean a = Array.fold_left ( +. ) 0. a /. float_of_int n in
    let mx = mean rx and my = mean ry in
    let num = ref 0. and dx = ref 0. and dy = ref 0. in
    for i = 0 to n - 1 do
      let a = rx.(i) -. mx and b = ry.(i) -. my in
      num := !num +. (a *. b);
      dx := !dx +. (a *. a);
      dy := !dy +. (b *. b)
    done;
    if !dx = 0. || !dy = 0. then 1. else !num /. sqrt (!dx *. !dy)
  end

let fidelity_run ~quick =
  let module Space = Hidet_sched.Space in
  let module Fid = Hidet_cycle.Fidelity in
  let module PM = Hidet_gpu.Perf_model in
  let shapes =
    if quick then [ (256, 256, 256) ]
    else
      [ (1024, 1024, 1024); (2048, 2048, 64); (512, 512, 4096); (4096, 256, 1024) ]
  in
  (* The worst kernel dominates the extras attribution: for split-k plans
     report the cycle columns of the slowest (cycle-modeled) kernel. *)
  let extras_of (c : C.t) =
    let pick (best : (float * Fid.extras) option) k =
      let e, x = Fid.kernel dev k in
      let l = if e.PM.feasible then e.PM.latency else infinity in
      match best with Some (l0, _) when l0 >= l -> best | _ -> Some (l, x)
    in
    match List.fold_left pick None c.C.kernels with
    | Some (_, x) -> x
    | None -> failwith "bench fidelity: compiled op with no kernels"
  in
  let winner (cfg, _, la, lc) (x : Fid.extras) =
    Json.Obj
      [
        ("config", Json.Str (MT.config_to_string cfg));
        ("analytic_latency_us", Json.Num (us la));
        ("cycle_latency_us", Json.Num (us lc));
        ("txn_per_access", Json.Num x.Fid.txn_per_access);
        ("conflict_factor", Json.Num x.Fid.conflict_factor);
        ("l1_hit", Json.Num x.Fid.l1_hit);
        ("l2_hit", Json.Num x.Fid.l2_hit);
      ]
  in
  let eval (m, n, k) =
    let candidates = strided ~quick (Space.matmul_with_split_k ~m ~n) in
    let measured =
      List.filter_map
        (fun cfg ->
          match MT.compile ~m ~n ~k cfg with
          | exception Invalid_argument _ -> None
          | compiled ->
            let la = C.latency ~fidelity:`Analytic dev compiled in
            let lc = C.latency ~fidelity:`Cycle dev compiled in
            if la < infinity && lc < infinity then
              Some (cfg, compiled, la, lc)
            else None)
        candidates
    in
    if measured = [] then failwith "bench fidelity: no feasible schedule";
    let la = Array.of_list (List.map (fun (_, _, l, _) -> l) measured) in
    let lc = Array.of_list (List.map (fun (_, _, _, l) -> l) measured) in
    let rho = spearman la lc in
    let argmin v =
      let best = ref 0 in
      Array.iteri (fun i x -> if x < v.(!best) then best := i) v;
      !best
    in
    let ((acfg, acomp, _, _) as aw) = List.nth measured (argmin la) in
    let ((ccfg, ccomp, _, _) as cw) = List.nth measured (argmin lc) in
    let ax = extras_of acomp and cx = extras_of ccomp in
    let changed = acfg <> ccfg in
    (* When the winners differ, name the cycle-model terms (absent from the
       analytic model) on which the cycle winner beats the analytic one. *)
    let attribution =
      if not changed then ""
      else
        String.concat "+"
          (List.filter_map
             (fun (cond, name) -> if cond then Some name else None)
             [
               (cx.Fid.txn_per_access < ax.Fid.txn_per_access -. 1e-9,
                "coalescing");
               (cx.Fid.conflict_factor < ax.Fid.conflict_factor -. 1e-9,
                "bank-conflicts");
               (cx.Fid.l1_hit +. cx.Fid.l2_hit
                > ax.Fid.l1_hit +. ax.Fid.l2_hit +. 1e-9,
                "cache");
             ])
    in
    Json.Obj
      [
        ("shape", Json.Str (shape_name (m, n, k)));
        ("candidates", R.int (List.length candidates));
        ("feasible", R.int (List.length measured));
        ("spearman", Json.Num rho);
        ("analytic_winner", winner aw ax);
        ("cycle_winner", winner cw cx);
        ("winner_changed", Json.Bool changed);
        ("attribution", Json.Str attribution);
      ]
  in
  Json.Obj
    [
      ("experiment", Json.Str "fidelity");
      ("quick", Json.Bool quick);
      ("shapes", Json.Arr (List.map eval shapes));
    ]

let fidelity_gates r =
  let shapes = R.list "shapes" r in
  List.concat_map
    (fun s ->
      let shape = R.str "shape" s and rho = R.num "spearman" s in
      let cycle_latency w = R.num "cycle_latency_us" (R.field w s) in
      [
        ( sprintf
            "analytic and cycle rankings must agree ordinally on %s (spearman \
             %.3f < 0.35)"
            shape rho,
          rho >= 0.35 );
        ( sprintf
            "the cycle-ranked winner must be at least as good as the \
             analytic-ranked winner under the cycle model on %s"
            shape,
          cycle_latency "cycle_winner" <= cycle_latency "analytic_winner" +. 1e-6 );
      ])
    shapes
  @ [
      ( "at least one shape must change winners for a reason the analytic model \
         cannot see (coalescing, bank conflicts or caches)",
        List.exists
          (fun s -> R.bool "winner_changed" s && R.str "attribution" s <> "")
          shapes );
    ]

let fidelity =
  {
    R.name = "fidelity";
    title =
      "cycle-approximate model (coalescing, bank conflicts, caches, warp \
       scheduler) vs the analytic ranking";
    run = fidelity_run;
    gates = fidelity_gates;
  }
