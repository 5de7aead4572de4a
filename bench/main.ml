(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6) on the GPU simulator, plus the design-choice
   ablations called out in DESIGN.md and Bechamel micro-benchmarks of the
   compiler itself.

   Usage:
     dune exec bench/main.exe                       # everything
     dune exec bench/main.exe -- --only fig16,tune  # some experiments
     dune exec bench/main.exe -- --list             # experiment ids
     dune exec bench/main.exe -- --quick            # smaller reported runs
     dune exec bench/main.exe -- --out DIR          # where BENCH_*.json go (.)
     dune exec bench/main.exe -- --cache F          # warm-start schedule cache
     dune exec bench/main.exe -- --trace F          # Chrome trace of the run *)

open Hidet_bench
module M = Hidet_models.Models
module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module HE = Hidet.Hidet_engine
module IC = Hidet_baselines.Input_centric
module LS = Hidet_baselines.Loop_sched
module Lib = Hidet_baselines.Library_engine
module E = Hidet_runtime.Engine
module MT = Hidet_sched.Matmul_template
module Tu = Hidet_sched.Tuner
module C = Hidet_sched.Compiled

let dev = Hidet_gpu.Device.rtx3090
let section = Report.section
let ms s = s *. 1e3
let us s = s *. 1e6

(* ------------------------------------------------------------------ *)
(* Shared end-to-end results (Figs 13, 14, 19 share one computation)  *)
(* ------------------------------------------------------------------ *)

let fig13_engines : (module E.S) list =
  [
    (module Lib.Pytorch);
    (module Lib.Ort);
    (module IC.Autotvm);
    (module IC.Ansor);
    (module HE);
  ]

let end_to_end = Hashtbl.create 16

let e2e (module Eng : E.S) model_name =
  let key = (Eng.name, model_name) in
  match Hashtbl.find_opt end_to_end key with
  | Some r -> r
  | None ->
    let r = Eng.compile dev (M.by_name model_name) in
    Hashtbl.replace end_to_end key r;
    r

let models = [ "resnet50"; "inception_v3"; "mobilenet_v2"; "bert"; "gpt2" ]

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: DNN libraries and compilers, qualitative comparison";
  Printf.printf "%-14s %-10s %-10s %-12s %-10s\n" "Engine" "GraphOpt" "KernelOpt"
    "TuningTime" "Eng.Effort";
  Printf.printf "%-14s %-10s %-10s %-12s %-10s\n" "" "(higher=+)" "(higher=+)"
    "(lower=+)" "(lower=+)";
  let invert = function E.Low -> "ooo" | E.Medium -> "oo" | E.High -> "o" in
  List.iter
    (fun (module Eng : E.S) ->
      Printf.printf "%-14s %-10s %-10s %-12s %-10s\n" Eng.name
        (E.capability_dots Eng.caps.E.graph_opt)
        (E.capability_dots Eng.caps.E.kernel_opt)
        (invert Eng.caps.E.tuning_time)
        (invert Eng.caps.E.engineering_effort))
    fig13_engines;
  Printf.printf
    "(paper Table 1: Hidet combines high graph- and kernel-level optimization\n\
    \ with low tuning time at moderate engineering effort)\n"

(* Distinct convolution workloads of ResNet-50, for Figs 7, 15, 18. *)
let resnet_convs () =
  let g = M.resnet50 () in
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun (n : G.node) ->
      match n.G.op with
      | Op.Conv2d { stride; pad_h; pad_w } ->
        let x_shape = G.node_shape g (List.nth n.G.inputs 0) in
        let w_shape = G.node_shape g (List.nth n.G.inputs 1) in
        let key = (x_shape, w_shape, stride) in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.replace seen key ();
          Some (x_shape, w_shape, stride, pad_h, pad_w)
        end
      | _ -> None)
    (G.nodes g)

let fig7 () =
  section "Figure 7: schedule-space sizes for ResNet-50 convolutions";
  Printf.printf "%-4s %-24s %-16s %14s %10s\n" "#" "input (NCHW)" "weight (OIHW)"
    "AutoTVM space" "Hidet";
  let hidet_size = Hidet_sched.Space.size () in
  List.iteri
    (fun i (x_shape, w_shape, stride, pad_h, pad_w) ->
      let size = IC.conv_space_size ~x_shape ~w_shape ~stride ~pad_h ~pad_w in
      Printf.printf "%-4d %-24s %-16s %14.3g %10d\n" (i + 1)
        (String.concat "x" (List.map string_of_int x_shape))
        (String.concat "x" (List.map string_of_int w_shape))
        size hidet_size)
    (resnet_convs ());
  Printf.printf
    "(paper: input-centric spaces reach 1e4..1e8 per layer; Hidet's\n\
    \ hardware-centric space stays under ~500 for every input size)\n"

let fig13 () =
  section "Figure 13: end-to-end inference latency, batch 1 (ms)";
  Printf.printf "%-14s" "Model";
  List.iter (fun (module Eng : E.S) -> Printf.printf "%12s" Eng.name) fig13_engines;
  Printf.printf "%12s\n" "speedup";
  List.iter
    (fun model ->
      Printf.printf "%-14s%!" model;
      let lats =
        List.map
          (fun (module Eng : E.S) ->
            let r = e2e (module Eng) model in
            Printf.printf "%12.2f%!" (ms r.E.latency);
            (Eng.name, r.E.latency))
          fig13_engines
      in
      let hidet = List.assoc "hidet" lats in
      let best_baseline =
        List.fold_left
          (fun acc (n, l) -> if n = "hidet" then acc else Float.min acc l)
          infinity lats
      in
      Printf.printf "%11.2fx\n%!" (best_baseline /. hidet))
    models;
  Printf.printf
    "(paper: Hidet outperforms every baseline on most models, up to 1.48x;\n\
    \ Ansor remains competitive on MobileNet-V2 depthwise convolutions)\n"

let fig14 () =
  section "Figure 14: tuning cost (hours of schedule measurement)";
  Printf.printf "%-14s %10s %10s %10s %16s %16s\n" "Model" "autotvm" "ansor"
    "hidet" "autotvm/hidet" "ansor/hidet";
  List.iter
    (fun model ->
      (* Fresh + cached: the from-scratch cost of the model, independent of
         how warm the schedule cache already is from earlier experiments. *)
      let cost name =
        let (module Eng : E.S) =
          List.find (fun (module Eng : E.S) -> Eng.name = name) fig13_engines
        in
        E.total_tuning_cost (e2e (module Eng) model)
      in
      let a = cost "autotvm" and n = cost "ansor" and h = cost "hidet" in
      Printf.printf "%-14s %10.2f %10.2f %10.2f %15.1fx %15.1fx\n" model
        (a /. 3600.) (n /. 3600.) (h /. 3600.) (a /. h) (n /. h))
    models;
  Printf.printf
    "(paper: Hidet cuts tuning cost ~20x vs AutoTVM and ~11x vs Ansor;\n\
    \ AutoTVM's Bert/GPT-2 spaces are tiny AND ineffective: cheap to tune,\n\
    \ slow to run, cf. Figure 13)\n"

let fig15 () =
  section
    "Figure 15: schedule latency distribution (ResNet-50 conv: 28x28, 256ch, \
     k3, s2)";
  let x_shape = [ 1; 256; 28; 28 ] and w_shape = [ 256; 256; 3; 3 ] in
  let stride = 2 and pad = 1 in
  let m = 256 and n = 14 * 14 and k = 256 * 9 in
  let hidet_lats =
    List.filter_map
      (fun cfg ->
        match MT.compile ~a_batched:false ~b_batched:true ~m ~n ~k cfg with
        | c ->
          let l = C.latency dev c in
          if l < infinity then Some (us l) else None
        | exception Invalid_argument _ -> None)
      (Hidet_sched.Space.matmul_with_split_k ~m ~n)
  in
  let sampled ~trials ~seed =
    let acc = ref [] in
    let rng = Random.State.make [| seed |] in
    for _ = 1 to trials do
      let s = IC.sample_gemm_sched rng ~m ~n ~k in
      match LS.conv2d ~x_shape ~w_shape ~stride ~pad_h:pad ~pad_w:pad s with
      | c ->
        let l = C.latency dev c in
        if l < infinity then acc := us l :: !acc
      | exception Invalid_argument _ -> ()
    done;
    !acc
  in
  let autotvm_lats = sampled ~trials:1000 ~seed:11 in
  let ansor_lats = sampled ~trials:800 ~seed:13 in
  let histogram name lats =
    let buckets = [ 25.; 50.; 73.; 100.; 200.; 400.; 800.; infinity ] in
    let count lo hi = List.length (List.filter (fun l -> l >= lo && l < hi) lats) in
    Printf.printf "%-8s (%4d valid) " name (List.length lats);
    let lo = ref 0. in
    List.iter
      (fun hi ->
        Printf.printf "[<%s:%4d] "
          (if hi = infinity then "inf" else Printf.sprintf "%.0fus" hi)
          (count !lo hi);
        lo := hi)
      buckets;
    (match lats with
    | [] -> ()
    | _ ->
      Printf.printf " min=%.1f med=%.1f"
        (List.fold_left Float.min infinity lats)
        (List.nth (List.sort compare lats) (List.length lats / 2)));
    print_newline ()
  in
  histogram "hidet" hidet_lats;
  histogram "autotvm" autotvm_lats;
  histogram "ansor" ansor_lats;
  Printf.printf
    "(paper: most of Hidet's ~180 schedules beat the 73us mark while the\n\
    \ sampled input-centric schedules form a long slow tail)\n"

let fig16 () =
  section "Figure 16: matmul latency on consecutive input sizes (us)";
  Printf.printf "%-6s %12s %12s %12s\n" "size" "autotvm" "ansor" "hidet";
  List.iter
    (fun size ->
      let m = size and n = size and k = size in
      let loop strategy trials seed =
        match
          IC.tune_gemm ~strategy ~trials ~device:dev ~seed ~m ~n ~k
            ~compile:(fun s -> LS.gemm ~m ~n ~k s)
            ()
        with
        | Some t -> Printf.sprintf "%12.1f" (us t.IC.latency)
        | None -> Printf.sprintf "%12s" "FAIL"
      in
      let hidet =
        match
          Tu.tune ~device:dev
            ~candidates:(Hidet_sched.Space.matmul_with_split_k ~m ~n)
            ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg)
            ()
        with
        | Some (_, _, st) -> Printf.sprintf "%12.1f" (us st.Tu.best_latency)
        | None -> Printf.sprintf "%12s" "FAIL"
      in
      Printf.printf "%-6d %s %s %s%s\n%!" size
        (loop IC.Random_search 1000 size)
        (loop IC.Evolutionary 800 (size + 7))
        hidet
        (if size = 2039 then "   <- prime" else ""))
    [ 2030; 2032; 2034; 2036; 2038; 2039; 2040; 2042; 2044; 2046; 2048 ];
  Printf.printf
    "(paper: the input-centric tuners fluctuate with the size's divisor\n\
    \ structure and find NO valid schedule at the prime 2039, while Hidet's\n\
    \ predicated hardware-centric schedules stay flat)\n"

let fig17 () =
  section "Figure 17: ResNet-50 latency across batch sizes (ms)";
  let engines : (module E.S) list =
    [ (module Lib.Ort); (module IC.Autotvm); (module IC.Ansor); (module HE) ]
  in
  Printf.printf "%-8s" "batch";
  List.iter (fun (module Eng : E.S) -> Printf.printf "%14s" Eng.name) engines;
  print_newline ();
  List.iter
    (fun batch ->
      Printf.printf "%-8d%!" batch;
      List.iter
        (fun (module Eng : E.S) ->
          let r = Eng.compile dev (M.resnet50 ~batch ()) in
          Printf.printf "%14.2f%!" (ms r.E.latency))
        engines;
      print_newline ())
    [ 1; 4; 8 ];
  Printf.printf
    "(paper: the tuners beat ONNX Runtime at small batch but lose their edge\n\
    \ at batch 8 where double buffering dominates; Hidet wins at all sizes)\n"

let fig18 () =
  section "Figure 18: Conv2d-BN-ReLU sub-graphs of ResNet-50 (us)";
  let subgraph (x_shape, w_shape, stride, pad_h, pad_w) =
    let g = G.create () in
    G.name g "conv_bn_relu";
    let x = G.input g x_shape in
    let w = G.constant_rand g ~seed:5 w_shape in
    let oc = List.hd w_shape in
    let scale = G.constant_rand g ~seed:6 [ oc ] in
    let shift = G.constant_rand g ~seed:7 [ oc ] in
    let c = G.add_op g (Op.Conv2d { stride; pad_h; pad_w }) [ x; w ] in
    let out = G.relu g (G.scale_shift g c ~scale ~shift) in
    G.set_outputs g [ out ];
    g
  in
  Printf.printf "%-4s %-22s %-16s %10s %10s %10s\n" "#" "input" "weight" "ort"
    "ansor" "hidet";
  List.iteri
    (fun i cfg ->
      let x_shape, w_shape, _, _, _ = cfg in
      let lat (module Eng : E.S) = (Eng.compile dev (subgraph cfg)).E.latency in
      Printf.printf "%-4d %-22s %-16s %10.1f %10.1f %10.1f\n%!" (i + 1)
        (String.concat "x" (List.map string_of_int x_shape))
        (String.concat "x" (List.map string_of_int w_shape))
        (us (lat (module Lib.Ort)))
        (us (lat (module IC.Ansor)))
        (us (lat (module HE))))
    (resnet_convs ());
  Printf.printf
    "(paper: implicit-GEMM convolution with fused im2col/BN/ReLU and\n\
    \ parallel-k reduction lets Hidet beat both on most shapes, especially\n\
    \ the small-spatial late stages)\n"

let fig19 () =
  section "Figure 19: TensorRT vs Hidet (ms)";
  Printf.printf "%-14s %12s %12s %10s\n" "Model" "tensorrt" "hidet" "trt/hidet";
  List.iter
    (fun model ->
      let trt = (e2e (module Lib.Tensorrt) model).E.latency in
      let hidet = (e2e (module HE) model).E.latency in
      Printf.printf "%-14s %12.2f %12.2f %9.2fx\n%!" model (ms trt) (ms hidet)
        (trt /. hidet))
    models;
  Printf.printf
    "(paper: Hidet wins or ties on the CNNs thanks to per-shape tuning;\n\
    \ TensorRT wins on Bert/GPT-2 with its dedicated fused-attention kernels)\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_double_buffer () =
  section "Ablation: double buffering (the paper's Fig. 5 optimization)";
  Printf.printf "%-22s %12s %12s %8s\n" "matmul" "db=off (us)" "db=on (us)" "gain";
  List.iter
    (fun (m, n, k) ->
      let best ~allow_db =
        let candidates =
          List.filter
            (fun (c : MT.config) ->
              (allow_db || c.MT.stages = 1) && not c.MT.use_tensor_core)
            (Hidet_sched.Space.matmul_with_split_k ~m ~n)
        in
        match
          Tu.tune ~device:dev ~candidates
            ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg)
            ()
        with
        | Some (_, _, st) -> st.Tu.best_latency
        | None -> infinity
      in
      let off = best ~allow_db:false and on_ = best ~allow_db:true in
      Printf.printf "%-22s %12.1f %12.1f %7.2fx\n"
        (Printf.sprintf "%dx%dx%d" m n k)
        (us off) (us on_) (off /. on_))
    [ (1024, 1024, 1024); (2048, 2048, 2048); (512, 512, 4096) ]

let ablation_split_k () =
  section "Ablation: split-k parallel reduction (paper section 6.2.4)";
  Printf.printf "%-22s %12s %14s %8s\n" "matmul" "sk=1 (us)" "tuned sk (us)" "gain";
  List.iter
    (fun (m, n, k) ->
      let best ~allow_sk =
        let candidates =
          List.filter
            (fun (c : MT.config) -> allow_sk || c.MT.split_k = 1)
            (Hidet_sched.Space.matmul_with_split_k ~m ~n)
        in
        match
          Tu.tune ~device:dev ~candidates
            ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg)
            ()
        with
        | Some (cfg, _, st) -> (st.Tu.best_latency, cfg.MT.split_k)
        | None -> (infinity, 1)
      in
      let off, _ = best ~allow_sk:false in
      let on_, sk = best ~allow_sk:true in
      Printf.printf "%-22s %12.1f %14.1f %7.2fx (sk=%d)\n"
        (Printf.sprintf "%dx%dx%d" m n k)
        (us off) (us on_) (off /. on_) sk)
    [ (512, 49, 4608); (64, 64, 4096); (2048, 49, 1024) ]

let ablation_fusion () =
  section "Ablation: post-scheduling fusion on end-to-end models";
  List.iter
    (fun name ->
      let lat options =
        let _, r = HE.compile_plan ~options dev (M.by_name name) in
        (r.E.latency, r.E.kernel_count)
      in
      let on_, k_on = lat HE.default_options in
      let off, k_off = lat { HE.default_options with HE.fuse = false } in
      Printf.printf
        "%-14s fused: %8.2f ms (%3d kernels)   unfused: %8.2f ms (%3d \
         kernels)   gain %.2fx\n%!"
        name (ms on_) k_on (ms off) k_off (off /. on_))
    [ "resnet50"; "bert" ]

let ablation_tensor_core () =
  section "Ablation: tensor-core MMA path (TF32) vs CUDA-core fp32";
  List.iter
    (fun name ->
      let lat options =
        let _, r = HE.compile_plan ~options dev (M.by_name name) in
        r.E.latency
      in
      let fp32 = lat HE.default_options in
      let tf32 = lat { HE.default_options with HE.allow_tensor_core = true } in
      Printf.printf
        "%-14s fp32: %8.2f ms   tf32 tensor cores: %8.2f ms   gain %.2fx\n%!"
        name (ms fp32) (ms tf32) (fp32 /. tf32))
    [ "resnet50"; "bert" ]

let ablation_device_sweep () =
  section "Ablation: hardware-centric retargeting (RTX 3090 vs A100)";
  Printf.printf
    "The schedule space is defined by hardware limits, not input sizes, so\n\
     retargeting is just re-running the one-minute exhaustive tuner:\n";
  List.iter
    (fun (m, n, k) ->
      Printf.printf "matmul %dx%dx%d\n" m n k;
      List.iter
        (fun device ->
          match
            Tu.tune ~device
              ~candidates:(Hidet_sched.Space.matmul_with_split_k ~m ~n)
              ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg)
              ()
          with
          | Some (cfg, _, st) ->
            Printf.printf "  %-8s best %-28s %8.1f us\n"
              device.Hidet_gpu.Device.name (MT.config_to_string cfg)
              (us st.Tu.best_latency)
          | None -> Printf.printf "  %-8s no feasible schedule\n" device.Hidet_gpu.Device.name)
        [ Hidet_gpu.Device.rtx3090; Hidet_gpu.Device.a100 ])
    [ (1024, 1024, 1024); (512, 49, 4608) ];
  (* End-to-end: the same model retuned for each device. *)
  List.iter
    (fun device ->
      let r =
        HE.compile device (M.resnet50 ())
      in
      Printf.printf "resnet50 on %-8s %8.2f ms (%d kernels)\n"
        device.Hidet_gpu.Device.name (ms r.E.latency) r.E.kernel_count)
    [ Hidet_gpu.Device.rtx3090; Hidet_gpu.Device.a100 ]

let tuning_service () =
  section "Tuning service: parallel candidate measurement + schedule cache";
  let m = 512 and n = 49 and k = 4608 in
  let candidates = Hidet_sched.Space.matmul_with_split_k ~m ~n in
  let compile cfg = MT.compile ~a_batched:false ~b_batched:true ~m ~n ~k cfg in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Warm up once so allocator effects don't favor either path. *)
  ignore (Tu.tune ~parallel:false ~device:dev ~candidates ~compile ());
  let seq, seq_wall =
    time (fun () -> Tu.tune ~parallel:false ~device:dev ~candidates ~compile ())
  in
  let par, par_wall =
    time (fun () -> Tu.tune ~device:dev ~candidates ~compile ())
  in
  (match (seq, par) with
  | Some (cfg_s, _, st_s), Some (cfg_p, _, st_p) ->
    Printf.printf
      "matmul %dx%dx%d: %d candidates (%d measured, %d rejected)\n" m n k
      (List.length candidates) st_p.Tu.trials st_p.Tu.rejected;
    Printf.printf "  sequential: %8.1f ms wall (1 domain)\n" (ms seq_wall);
    Printf.printf "  parallel:   %8.1f ms wall (%d domains)  speedup %.2fx\n"
      (ms par_wall) st_p.Tu.workers (seq_wall /. par_wall);
    Printf.printf "  identical winner: %b (%s at %.1f us)\n"
      (cfg_s = cfg_p && st_s.Tu.best_latency = st_p.Tu.best_latency)
      (MT.config_to_string cfg_p)
      (us st_p.Tu.best_latency);
    if Domain.recommended_domain_count () < 4 then
      Printf.printf
      "  (only %d core(s) here: run on >= 4 cores for the >= 2x speedup)\n"
        (Domain.recommended_domain_count ())
  | _ -> print_endline "  tuner found no feasible schedule");
  (* Cache warm-start: a second compile of the same model performs zero
     fresh tuning trials. *)
  Hidet_sched.Schedule_cache.clear ();
  let cold = HE.compile dev (M.resnet50 ()) in
  let warm = HE.compile dev (M.resnet50 ()) in
  Printf.printf
    "resnet50 cold compile: %7.0f s fresh simulated tuning, %.2f s wall\n"
    cold.E.tuning_cost cold.E.compile_wall;
  Printf.printf
    "resnet50 warm compile: %7.0f s fresh (%.0f s served by cache), %.2f s wall\n"
    warm.E.tuning_cost warm.E.cached_tuning_cost warm.E.compile_wall;
  Printf.printf
    "(the warm compile must report 0 fresh seconds; cache holds %d workloads)\n"
    (Hidet_sched.Schedule_cache.size ())

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the compiler itself                    *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Compiler micro-benchmarks (real wall-clock on this machine)";
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"enumerate matmul space"
        (Staged.stage (fun () ->
             ignore
               (List.length (Hidet_sched.Space.matmul_with_split_k ~m:512 ~n:49))));
      Test.make ~name:"instantiate matmul template"
        (Staged.stage (fun () ->
             ignore (MT.compile ~m:256 ~n:256 ~k:256 MT.default_config)));
      (let c = MT.compile ~m:256 ~n:256 ~k:256 MT.default_config in
       Test.make ~name:"analytic latency estimate"
         (Staged.stage (fun () -> ignore (C.latency dev c))));
      (let mapping = Hidet_task.Mapping.(repeat [ 4; 1 ] *> spatial [ 16; 8 ]) in
       Test.make ~name:"task-mapping lowering"
         (Staged.stage (fun () ->
              ignore
                (Hidet_task.Lower.on_workers mapping
                   ~worker:Hidet_ir.Expr.Thread_idx (fun _ -> Hidet_ir.Stmt.nop)))));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
    let raw = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        (Toolkit.Instance.monotonic_clock)
        raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-34s %12.1f ns/run\n%!" name est
        | _ -> ())
      results
  in
  List.iter benchmark tests


(* ------------------------------------------------------------------ *)

(* Paper figures and ablations print their tables; reported experiments
   also write BENCH_<name>.json and gate on it (see Report.drive). *)
type experiment = Print of (unit -> unit) | Reported of Report.t

let experiments =
  [
    ("table1", Print table1);
    ("fig7", Print fig7);
    ("fig13", Print fig13);
    ("fig14", Print fig14);
    ("fig15", Print fig15);
    ("fig16", Print fig16);
    ("fig17", Print fig17);
    ("fig18", Print fig18);
    ("fig19", Print fig19);
    ("ablation_double_buffer", Print ablation_double_buffer);
    ("ablation_split_k", Print ablation_split_k);
    ("ablation_fusion", Print ablation_fusion);
    ("ablation_tensor_core", Print ablation_tensor_core);
    ("ablation_device_sweep", Print ablation_device_sweep);
    ("tuning_service", Print tuning_service);
    ("tune", Reported Reported.tune);
    ("fidelity", Reported Reported.fidelity);
    ("interp", Reported Reported.interp);
    ("serve", Reported Reported.serve);
    ("shard", Reported Reported.shard);
    ("micro", Print micro);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let value flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  if List.mem "--list" args then
    List.iter (fun (id, _) -> print_endline id) experiments
  else begin
    let selected =
      match value "--only" with
      | None -> experiments
      | Some ids ->
        List.map
          (fun id ->
            match List.assoc_opt id experiments with
            | Some e -> (id, e)
            | None ->
              Printf.eprintf "unknown experiment %s (try --list)\n" id;
              exit 1)
          (String.split_on_char ',' ids)
    in
    let quick = List.mem "--quick" args in
    let out = Option.value (value "--out") ~default:"." in
    if not (Sys.file_exists out && Sys.is_directory out) then begin
      Printf.eprintf "--out %s: not a directory\n" out;
      exit 1
    end;
    (* --cache FILE: warm-start the schedule cache across benchmark runs. *)
    let cache_file = value "--cache" in
    (match cache_file with
    | Some path when Sys.file_exists path -> (
      match Hidet_sched.Schedule_cache.load path with
      | Ok n -> Printf.printf "schedule cache: warm-started with %d entries\n" n
      | Error msg -> Printf.printf "schedule cache: ignoring %s (%s)\n" path msg)
    | _ -> ());
    let t0 = Unix.gettimeofday () in
    Printf.printf "Hidet reproduction benchmarks (device: %s)\n"
      (Format.asprintf "%a" Hidet_gpu.Device.pp dev);
    let run_selected () =
      List.fold_left
        (fun passed (_, e) ->
          match e with
          | Print f ->
            f ();
            passed
          | Reported r -> Report.drive ~out ~quick r && passed)
        true selected
    in
    (* --trace FILE: record spans for the whole run, export Chrome JSON. *)
    let passed =
      match value "--trace" with
      | None -> run_selected ()
      | Some path ->
        let passed, events = Hidet_obs.Trace.with_collector run_selected in
        Hidet_obs.Chrome_trace.save path events;
        Printf.printf "\ntrace: wrote %d events to %s\n" (List.length events)
          path;
        passed
    in
    (match cache_file with
    | Some path -> (
      match Hidet_sched.Schedule_cache.save path with
      | () ->
        Printf.printf "schedule cache: saved %d entries to %s\n"
          (Hidet_sched.Schedule_cache.size ()) path
      | exception Sys_error msg ->
        Printf.eprintf "schedule cache: could not save %s (%s)\n" path msg)
    | None -> ());
    Printf.printf "\nTotal benchmark wall time: %.1f s\n"
      (Unix.gettimeofday () -. t0);
    if not passed then exit 1
  end
