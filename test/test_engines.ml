(* Tests for the engines and the baselines: loop-oriented kernels'
   correctness, input-centric space mathematics (with brute-force checked
   factorization counts), tuner behavior (prime failure, budget capping,
   strategies), library dispatch, the engine capability contracts, and
   cross-engine correctness on an executable model. *)

module LS = Hidet_baselines.Loop_sched
module IC = Hidet_baselines.Input_centric
module Lib = Hidet_baselines.Library_engine
module HE = Hidet.Hidet_engine
module E = Hidet_runtime.Engine
module Plan = Hidet_runtime.Plan
module C = Hidet_sched.Compiled
module MT = Hidet_sched.Matmul_template
module M = Hidet_models.Models
module G = Hidet_graph.Graph
module T = Hidet_tensor.Tensor

let dev = Hidet_gpu.Device.rtx3090

(* --- loop-oriented kernels ----------------------------------------------------- *)

let loop_gemm_ok ?(batch = 1) ~m ~n ~k s =
  let a = T.rand ~seed:1 [ batch; m; k ] and b = T.rand ~seed:2 [ k; n ] in
  let expect = T.matmul a b in
  let c = LS.gemm ~batch ~m ~n ~k s in
  C.verify c;
  T.allclose ~rtol:1e-3 ~atol:1e-4 expect (C.run c [ a; b ])

let test_loop_gemm () =
  let s = { LS.tile_m = 32; tile_n = 32; tile_k = 8; thread_m = 4; thread_n = 4;
            use_shared = true; unroll = false } in
  Alcotest.(check bool) "shared" true (loop_gemm_ok ~m:64 ~n:64 ~k:32 s);
  Alcotest.(check bool) "direct" true
    (loop_gemm_ok ~m:64 ~n:64 ~k:32 { s with LS.use_shared = false });
  Alcotest.(check bool) "unrolled" true
    (loop_gemm_ok ~m:64 ~n:64 ~k:32 { s with LS.unroll = true });
  Alcotest.(check bool) "batched" true
    (loop_gemm_ok ~batch:2 ~m:32 ~n:32 ~k:16
       { s with LS.tile_k = 16 })

let test_loop_gemm_divisor_constraint () =
  let s = { LS.tile_m = 32; tile_n = 32; tile_k = 8; thread_m = 4; thread_n = 4;
            use_shared = true; unroll = false } in
  (* 100 is not divisible by 32. *)
  Alcotest.(check bool) "non-divisor rejected" true
    (try
       ignore (LS.gemm ~m:100 ~n:64 ~k:32 s);
       false
     with Invalid_argument _ -> true);
  (* Thread count below a warp rejected. *)
  Alcotest.(check bool) "tiny block rejected" true
    (Result.is_error
       (LS.check ~m:64 ~n:64 ~k:32
          { s with LS.tile_m = 4; tile_n = 4; thread_m = 1; thread_n = 1 }))

let test_loop_gemm_not_pipelined () =
  (* The central claim: loop-oriented kernels never exhibit the double
     buffering pattern, so they get no overlap credit. *)
  let s = { LS.tile_m = 32; tile_n = 32; tile_k = 8; thread_m = 4; thread_n = 4;
            use_shared = true; unroll = false } in
  let c = LS.gemm ~m:256 ~n:256 ~k:256 s in
  List.iter
    (fun k ->
      Alcotest.(check int) "stages = 1" 1 (Hidet_gpu.Pipeline.effective_stages k))
    c.C.kernels

let test_loop_conv () =
  let x = T.rand ~seed:3 [ 2; 4; 8; 8 ] and w = T.rand ~seed:4 [ 8; 4; 3; 3 ] in
  let expect = T.conv2d x w ~stride:1 ~padding:1 in
  let s = { LS.tile_m = 8; tile_n = 32; tile_k = 6; thread_m = 1; thread_n = 1;
            use_shared = true; unroll = false } in
  let c = LS.conv2d ~x_shape:[ 2; 4; 8; 8 ] ~w_shape:[ 8; 4; 3; 3 ] ~stride:1
      ~pad_h:1 ~pad_w:1 s in
  Alcotest.(check bool) "conv" true
    (T.allclose ~rtol:1e-3 ~atol:1e-4 expect (C.run c [ x; w ]))

let test_loop_depthwise () =
  let x = T.rand ~seed:5 [ 1; 4; 8; 8 ] and w = T.rand ~seed:6 [ 4; 1; 3; 3 ] in
  let expect = T.depthwise_conv2d x w ~stride:1 ~padding:1 in
  List.iter
    (fun s ->
      let c = LS.depthwise ~x_shape:[ 1; 4; 8; 8 ] ~w_shape:[ 4; 1; 3; 3 ]
          ~stride:1 ~padding:1 s in
      Alcotest.(check bool)
        (Printf.sprintf "dw tile %d/%d" s.LS.dw_tile_p s.LS.dw_thread_p)
        true
        (T.allclose ~rtol:1e-3 ~atol:1e-4 expect (C.run c [ x; w ])))
    [
      { LS.dw_tile_p = 64; dw_thread_p = 1; dw_unroll = false };
      { LS.dw_tile_p = 64; dw_thread_p = 2; dw_unroll = true };
      { LS.dw_tile_p = 32; dw_thread_p = 4; dw_unroll = true };
    ]

(* --- input-centric space mathematics -------------------------------------------- *)

let brute_force_factorizations n j =
  (* Count ordered j-tuples of positive ints whose product is n. *)
  let rec go n j = if j = 1 then 1
    else
      List.fold_left
        (fun acc d -> if n mod d = 0 then acc + go (n / d) (j - 1) else acc)
        0
        (List.init n (fun i -> i + 1))
  in
  go n j

let test_ordered_factorizations () =
  List.iter
    (fun (n, j) ->
      Alcotest.(check (float 0.5))
        (Printf.sprintf "F_%d(%d)" j n)
        (float_of_int (brute_force_factorizations n j))
        (IC.ordered_factorizations n j))
    [ (12, 2); (12, 3); (64, 4); (60, 3); (1, 4); (17, 2); (100, 4) ]

let prop_random_factorization_product =
  QCheck.Test.make ~name:"random factorization multiplies back" ~count:200
    QCheck.(pair (int_range 1 4096) (int_range 1 5))
    (fun (n, j) ->
      let rng = Random.State.make [| n; j |] in
      let module IC = Hidet_baselines.Input_centric in
      let parts = IC.random_factorization rng n j in
      Array.fold_left ( * ) 1 parts = n)

let test_space_sizes_in_paper_range () =
  (* ResNet-50 convolution spaces land in the paper's 1e4..1e8 band. *)
  let g = M.resnet50 () in
  List.iter
    (fun (n : G.node) ->
      match n.G.op with
      | Hidet_graph.Op.Conv2d { stride; pad_h; pad_w } ->
        let x_shape = G.node_shape g (List.nth n.G.inputs 0) in
        let w_shape = G.node_shape g (List.nth n.G.inputs 1) in
        let s = IC.conv_space_size ~x_shape ~w_shape ~stride ~pad_h ~pad_w in
        if s < 1e4 || s > 1e8 then
          Alcotest.failf "space %.3g out of paper band for %s" s
            (String.concat "x" (List.map string_of_int w_shape))
      | _ -> ())
    (G.nodes g)

let test_prime_sizes_fail () =
  (* For a prime above the 1024-thread block limit the input-centric space
     is empty (the paper's 2039 case). Primes below it admit only degenerate
     whole-row schedules, far slower than Hidet's. *)
  let tune size =
    IC.tune_gemm ~strategy:IC.Random_search ~trials:500 ~device:dev ~seed:1
      ~m:size ~n:size ~k:size
      ~compile:(fun s -> LS.gemm ~m:size ~n:size ~k:size s)
      ()
  in
  Alcotest.(check bool) "prime 2039 fails" true (tune 2039 = None);
  (match Hidet_sched.Tuner.tune_matmul ~device:dev ~m:2039 ~n:2039 ~k:2039 () with
  | None -> Alcotest.fail "hidet must handle 2039"
  | Some (_, _, st) -> (
    match tune 1021 with
    | None -> () (* also fine: space effectively empty *)
    | Some t ->
      (* Hidet's 2039 kernel does 8x the work of a 1021 kernel; despite that
         it should still be far better than the degenerate loop schedule. *)
      Alcotest.(check bool) "degenerate prime schedule is catastrophic" true
        (t.IC.latency > st.Hidet_sched.Tuner.best_latency /. 2.)))

let test_budget_capped_by_space () =
  (* A tiny space is exhausted below the trial budget — the paper's
     AutoTVM-on-Bert effect ("less than 20 schedules"). A 7x7 spatial grid
     gives the depthwise space only F_3(49) * 2 = 12 points. *)
  match
    IC.tune_depthwise ~strategy:IC.Random_search ~trials:1000 ~device:dev
      ~seed:2 ~p:49
      ~compile:(fun s ->
        LS.depthwise ~x_shape:[ 1; 8; 7; 7 ] ~w_shape:[ 8; 1; 3; 3 ] ~stride:1
          ~padding:1 s)
      ()
  with
  | Some t ->
    Alcotest.(check bool)
      (Printf.sprintf "capped (%d trials)" t.IC.trials)
      true (t.IC.trials < 1000)
  | None -> Alcotest.fail "depthwise 7x7 must have valid schedules" 

let test_strategies_find_schedules () =
  List.iter
    (fun strategy ->
      match
        IC.tune_gemm ~strategy ~trials:300 ~device:dev ~seed:3 ~m:256 ~n:256
          ~k:256
          ~compile:(fun s -> LS.gemm ~m:256 ~n:256 ~k:256 s)
          ()
      with
      | Some t -> Alcotest.(check bool) "positive latency" true (t.IC.latency > 0.)
      | None -> Alcotest.fail "no schedule for 256^3")
    [ IC.Random_search; IC.Evolutionary ]

(* The driver logs every trial in sampling order, whichever domain
   measured it. *)
let test_tuning_log_order () =
  List.iter
    (fun strategy ->
      Hidet_obs.Tuning_log.start ();
      ignore
        (IC.tune_gemm ~strategy ~trials:60 ~device:dev ~seed:4 ~m:256 ~n:256
           ~k:256
           ~compile:(fun s -> LS.gemm ~m:256 ~n:256 ~k:256 s)
           ());
      Alcotest.(check (list int)) "indices in sampling order" (List.init 60 Fun.id)
        (List.map
           (fun (t : Hidet_obs.Tuning_log.trial) -> t.index)
           (Hidet_obs.Tuning_log.stop ())))
    [ IC.Random_search; IC.Evolutionary ]

(* --- library engines -------------------------------------------------------------- *)

let test_library_pick () =
  let big = Lib.pick_matmul ~m:4096 ~n:4096 ~k:1024 () in
  Alcotest.(check int) "big problems get big tiles" 128 big.MT.block_m;
  let small = Lib.pick_matmul ~m:32 ~n:32 ~k:64 () in
  Alcotest.(check bool) "small problems get the fallback tile" true
    (small.MT.block_m <= 64);
  List.iter
    (fun cfg -> Alcotest.(check bool) "valid" true (Result.is_ok (MT.check cfg)))
    [ big; small ];
  Alcotest.(check bool) "libraries ship pipelined kernels" true
    (big.MT.stages >= 2)

let test_fused_attention_latency () =
  let l = Lib.fused_attention_latency dev ~heads:12 ~seq:128 ~dim:64 in
  Alcotest.(check bool) "positive and sub-millisecond" true (l > 0. && l < 1e-3);
  let l2 = Lib.fused_attention_latency dev ~heads:12 ~seq:512 ~dim:64 in
  Alcotest.(check bool) "grows with sequence" true (l2 > l)

(* --- engine contracts --------------------------------------------------------------- *)

let engines : (module E.S) list =
  [
    (module Lib.Pytorch);
    (module Lib.Ort);
    (module Lib.Tensorrt);
    (module IC.Autotvm);
    (module IC.Ansor);
    (module HE);
  ]

let test_engine_results_sane () =
  let g () = M.Tiny.cnn () in
  List.iter
    (fun (module Eng : E.S) ->
      let r = Eng.compile dev (g ()) in
      Alcotest.(check bool) (Eng.name ^ " latency finite") true
        (r.E.latency > 0. && r.E.latency < 1.);
      Alcotest.(check bool) (Eng.name ^ " kernels > 0") true (r.E.kernel_count > 0);
      Alcotest.(check bool) (Eng.name ^ " tuning cost >= 0") true
        (r.E.tuning_cost >= 0.))
    engines

let test_fusion_levels_order_kernel_counts () =
  (* More fusion capability => fewer kernels on a fused-friendly model. *)
  let count (module Eng : E.S) = (Eng.compile dev (M.Tiny.cnn ())).E.kernel_count in
  let torch = count (module Lib.Pytorch) in
  let ort = count (module Lib.Ort) in
  let trt = count (module Lib.Tensorrt) in
  Alcotest.(check bool)
    (Printf.sprintf "pytorch %d >= ort %d >= trt %d" torch ort trt)
    true
    (torch >= ort && ort >= trt)

let test_libraries_tune_for_free () =
  List.iter
    (fun (module Eng : E.S) ->
      Alcotest.(check (float 0.)) (Eng.name ^ " no tuning cost") 0.
        (Eng.compile dev (M.Tiny.cnn ())).E.tuning_cost)
    [ (module Lib.Pytorch : E.S); (module Lib.Ort); (module Lib.Tensorrt) ]

let test_tuners_pay_tuning_cost () =
  (* Hidet's fresh trials may have been absorbed by the process-global
     schedule cache (earlier tests compiled the same workloads), so the
     from-scratch cost — fresh + cache-served — is the invariant. *)
  List.iter
    (fun (module Eng : E.S) ->
      Alcotest.(check bool) (Eng.name ^ " pays tuning") true
        (E.total_tuning_cost (Eng.compile dev (M.Tiny.cnn ())) > 0.))
    [ (module IC.Autotvm : E.S); (module IC.Ansor); (module HE) ]

let test_cross_engine_correctness () =
  (* Every engine's plan must compute the same function. *)
  let g = M.Tiny.cnn () in
  let x = T.rand ~seed:31 [ 1; 3; 16; 16 ] in
  let expect = Hidet_graph.Reference.run1 g [ x ] in
  List.iter
    (fun (module Eng : E.S) ->
      let got = Plan.run1 (Eng.compile dev (M.Tiny.cnn ())).E.plan [ x ] in
      if not (T.allclose ~rtol:1e-2 ~atol:1e-3 expect got) then
        Alcotest.failf "%s disagrees with reference (max %g)" Eng.name
          (T.max_abs_diff expect got))
    engines

let test_table1_capabilities () =
  (* The qualitative Table-1 relations the benchmark prints. *)
  let caps (module Eng : E.S) = Eng.caps in
  Alcotest.(check bool) "hidet graph opt high" true
    ((caps (module HE)).E.graph_opt = E.High);
  Alcotest.(check bool) "hidet kernel opt high" true
    ((caps (module HE)).E.kernel_opt = E.High);
  Alcotest.(check bool) "hidet tunes fast" true
    ((caps (module HE)).E.tuning_time = E.High);
  Alcotest.(check bool) "autotvm tunes slowly" true
    ((caps (module IC.Autotvm)).E.tuning_time = E.Low);
  Alcotest.(check bool) "pytorch no graph opt" true
    ((caps (module Lib.Pytorch)).E.graph_opt = E.Low)

(* ResNet-50 retargets from the RTX 3090 to the A100 without changing its
   plan's shape: the same 56 steps (nodes and arguments), so fusion and
   the template choices agree. The A100's extra kernels are split-k reduce
   kernels, one per step whose matmul winner splits k (44 there, 34 on the
   3090). Its higher modeled latency comes from its lower fp32 CUDA-core
   peak (19.5 vs 35.6 TFLOPS), the only core the default options tune
   for: an A100 with the 3090's peak compiles faster than the 3090. *)
let test_device_retarget () =
  let module D = Hidet_gpu.Device in
  let compile d = HE.compile_plan d (M.resnet50 ()) in
  let shape (p : Plan.t) =
    List.map (fun (s : Plan.step) -> (s.out_node, s.args)) p.steps
  in
  let split_k_steps (p : Plan.t) =
    List.length
      (List.filter
         (fun (s : Plan.step) ->
           List.exists
             (fun (k : Hidet_ir.Kernel.t) ->
               Filename.check_suffix k.name "_splitk_reduce")
             s.compiled.C.kernels)
         p.steps)
  in
  let p3090, r3090 = compile D.rtx3090 and pa100, ra100 = compile D.a100 in
  Alcotest.(check int) "steps" 56 (List.length p3090.steps);
  Alcotest.(check bool) "same steps on both devices" true
    (shape p3090 = shape pa100);
  List.iter
    (fun (name, p, split_k) ->
      Alcotest.(check int) (name ^ ": split-k steps") split_k (split_k_steps p);
      Alcotest.(check int)
        (name ^ ": kernels = steps + split-k reduces")
        (List.length p.steps + split_k)
        (Plan.kernel_count p))
    [ ("rtx3090", p3090, 34); ("a100", pa100, 44) ];
  Alcotest.(check bool) "the a100 models slower" true
    (ra100.E.latency > r3090.E.latency);
  let _, fast = compile { D.a100 with fp32_tflops = D.rtx3090.fp32_tflops } in
  Alcotest.(check bool) "an a100 with the 3090's fp32 peak models faster" true
    (fast.E.latency < r3090.E.latency)

(* One MD5 per engine over every tiny model's compile: the model name,
   latency and tuning cost (%h), kernel count and the MD5 of the plan's
   CUDA source. The schedule cache is cleared before each compile, so
   Hidet's tuning cost is the fresh cost whatever ran before. A change to
   the compile pipeline that moves any plan, latency or cost fails here. *)
let engine_digest (module Eng : E.S) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (model, make) ->
      Hidet_sched.Schedule_cache.clear ();
      let r = Eng.compile dev (make ()) in
      Printf.bprintf b "%s %h %h %d %s\n" model r.E.latency r.E.tuning_cost
        r.E.kernel_count
        (Digest.to_hex (Digest.string (Plan.cuda_source r.E.plan))))
    M.tiny_all;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_digests =
  [
    ("pytorch", "cae9fbcd321b7bc4b74876564f7f1398");
    ("onnxruntime", "0d181668a6c9d0ba6ece60458251d7f5");
    ("tensorrt", "0fb2de3b6e7df1ea3d834cec97c04093");
    ("autotvm", "13a6d2f71a9a3fa0669385fdd55ae4b2");
    ("ansor", "98deda75921092e7616970e38c38d4de");
    ("hidet", "160fa04918df32e70161de5232c68afe");
  ]

let test_engine_digests () =
  Alcotest.(check (list (pair string string)))
    "engine digests" pinned_digests
    (List.map
       (fun ((module Eng : E.S) as eng) -> (Eng.name, engine_digest eng))
       engines)

let () =
  Alcotest.run "hidet_engines"
    [
      ( "loop kernels",
        [
          Alcotest.test_case "gemm variants" `Quick test_loop_gemm;
          Alcotest.test_case "divisor constraint" `Quick test_loop_gemm_divisor_constraint;
          Alcotest.test_case "never pipelined" `Quick test_loop_gemm_not_pipelined;
          Alcotest.test_case "conv" `Quick test_loop_conv;
          Alcotest.test_case "depthwise" `Quick test_loop_depthwise;
        ] );
      ( "input-centric space",
        [
          Alcotest.test_case "factorization counts" `Quick test_ordered_factorizations;
          QCheck_alcotest.to_alcotest prop_random_factorization_product;
          Alcotest.test_case "paper-range space sizes" `Quick test_space_sizes_in_paper_range;
          Alcotest.test_case "prime sizes fail" `Quick test_prime_sizes_fail;
          Alcotest.test_case "budget capped by space" `Quick test_budget_capped_by_space;
          Alcotest.test_case "both strategies work" `Quick test_strategies_find_schedules;
          Alcotest.test_case "tuning log in sampling order" `Quick test_tuning_log_order;
        ] );
      ( "library dispatch",
        [
          Alcotest.test_case "matmul pick" `Quick test_library_pick;
          Alcotest.test_case "fused attention" `Quick test_fused_attention_latency;
        ] );
      ( "engine contracts",
        [
          Alcotest.test_case "results sane" `Quick test_engine_results_sane;
          Alcotest.test_case "fusion levels vs kernel counts" `Quick
            test_fusion_levels_order_kernel_counts;
          Alcotest.test_case "libraries tune for free" `Quick test_libraries_tune_for_free;
          Alcotest.test_case "tuners pay" `Quick test_tuners_pay_tuning_cost;
          Alcotest.test_case "cross-engine correctness" `Quick test_cross_engine_correctness;
          Alcotest.test_case "table 1 capabilities" `Quick test_table1_capabilities;
          Alcotest.test_case "rtx3090 and a100 plans" `Quick test_device_retarget;
          Alcotest.test_case "pinned digests" `Quick test_engine_digests;
        ] );
    ]
