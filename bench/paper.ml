(* The paper's evaluation (section 6) on the GPU simulator: Table 1,
   Figs. 7 and 13-19, and the design-choice ablations of DESIGN.md. Each
   experiment returns a report with the paper's one-line claim, and its
   gates state that claim as this repository measures it. Deviations that
   EXPERIMENTS.md records (Fig. 17's batch-8 crossover, Fig. 19's large
   CNNs) are in the reports but not gated. *)

module Json = Hidet_obs.Json
module R = Report
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
module Space = Hidet_sched.Space

let dev = Hidet_gpu.Device.rtx3090
let ms s = s *. 1e3
let us s = s *. 1e6
let sprintf = Printf.sprintf
let dims l = String.concat "x" (List.map string_of_int l)
let shape_name (m, n, k) = dims [ m; n; k ]

(* A paper experiment has no quick mode. Its report is its id, the
   paper's claim, then the fields [run] returns. *)
let experiment name title ~claim run gates =
  let run ~quick:_ =
    Json.Obj (("experiment", Json.Str name) :: ("claim", Json.Str claim) :: run ())
  in
  { R.name; title; run; gates }

(* [row.(name ^ suffix)] for each engine name, and their minimum. *)
let best_of names suffix row =
  List.fold_left (fun acc n -> Float.min acc (R.num (n ^ suffix) row)) infinity names

let tune_matmul ?(device = dev) ~m ~n ~k candidates =
  match
    Tu.tune ~device ~candidates:(Array.of_list candidates)
      ~compile:(fun cfg -> MT.compile ~m ~n ~k cfg) ()
  with
  | Some (cfg, _, st) -> (cfg, st.Tu.best_latency)
  | None -> failwith (sprintf "bench: no feasible schedule for %s" (shape_name (m, n, k)))

(* ------------------------------------------------------------------ *)
(* Shared end-to-end results (Figs 13, 14, 19 share one computation)  *)
(* ------------------------------------------------------------------ *)

let fig13_engines : (module E.S) list =
  [ (module Lib.Pytorch); (module Lib.Ort); (module IC.Autotvm); (module IC.Ansor); (module HE) ]

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

let engine_named name =
  List.find (fun (module Eng : E.S) -> Eng.name = name) fig13_engines

(* ------------------------------------------------------------------ *)

let table1 =
  experiment "table1" "DNN libraries and compilers, qualitative comparison"
    ~claim:
      "Hidet combines high graph- and kernel-level optimization with low \
       tuning time at moderate engineering effort"
    (fun () ->
      (* Tuning time and engineering effort as amounts: fewer dots is better. *)
      let amount = function E.Low -> "ooo" | E.Medium -> "oo" | E.High -> "o" in
      [
        ( "engines",
          Json.Arr
            (List.map
               (fun (module Eng : E.S) ->
                 let c = Eng.caps in
                 Json.Obj
                   [
                     ("engine", Json.Str Eng.name);
                     ("graph_opt", Json.Str (E.capability_dots c.E.graph_opt));
                     ("kernel_opt", Json.Str (E.capability_dots c.E.kernel_opt));
                     ("tuning_time", Json.Str (amount c.E.tuning_time));
                     ("engineering_effort", Json.Str (amount c.E.engineering_effort));
                   ])
               fig13_engines) );
      ])
    (fun r ->
      let best e =
        R.str "graph_opt" e = "ooo" && R.str "kernel_opt" e = "ooo" && R.str "tuning_time" e = "o"
      in
      [
        ( "only hidet combines the best graph and kernel optimization with the \
           least tuning time",
          List.map (R.str "engine") (List.filter best (R.list "engines" r)) = [ "hidet" ] );
      ])

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

let fig7 =
  experiment "fig7" "schedule-space sizes for ResNet-50 convolutions"
    ~claim:
      "input-centric spaces reach 1e4..1e8 per layer; Hidet's hardware-centric \
       space stays under ~500 for every input size"
    (fun () ->
      let layers =
        List.mapi
          (fun i (x_shape, w_shape, stride, pad_h, pad_w) ->
            (* The GEMM the engine lowers the convolution to: one row per
               output channel, one column per output pixel. *)
            let m, n =
              match Op.infer_shape (Op.Conv2d { stride; pad_h; pad_w }) [ x_shape; w_shape ] with
              | [ _; oc; oh; ow ] -> (oc, oh * ow)
              | _ -> assert false
            in
            let size = Array.length (HE.matmul_space HE.default_options ~m ~n) in
            ( size,
              Json.Obj
                [
                  ("layer", R.int (i + 1));
                  ("input", Json.Str (dims x_shape));
                  ("weight", Json.Str (dims w_shape));
                  ("gemm", Json.Str (dims [ m; n ]));
                  ("split_k_class", R.int (Space.split_k_class ~m ~n));
                  ( "autotvm_space",
                    Json.Num (IC.conv_space_size ~x_shape ~w_shape ~stride ~pad_h ~pad_w) );
                  ("hidet_space", R.int size);
                ] ))
          (resnet_convs ())
      in
      let above = List.filter (fun size -> size > 500) (List.map fst layers) in
      [
        ( "deviation",
          Json.Str
            (sprintf
               "%d of %d layers search more than the paper's ~500 schedules (%s): the \
                split-k variants the engine adds where the output grid is too small \
                to fill the device (not gated)"
               (List.length above) (List.length layers)
               (String.concat ", " (List.map string_of_int (List.sort_uniq compare above)))) );
        ("layers", Json.Arr (List.map snd layers));
      ])
    (fun r ->
      let layers = R.list "layers" r in
      let classes = List.sort_uniq compare (List.map (R.num "split_k_class") layers) in
      List.map
        (fun c ->
          let sizes =
            List.filter_map
              (fun l -> if R.num "split_k_class" l = c then Some (R.num "hidet_space" l) else None)
              layers
          in
          ( sprintf "hidet's space must have one size on every split-k class %.0f layer" c,
            List.for_all (( = ) (List.hd sizes)) sizes ))
        classes
      @ [
          ( "hidet's space must be >= 100x below every AutoTVM space",
            List.for_all (fun l -> R.num "autotvm_space" l >= 100. *. R.num "hidet_space" l) layers
          );
        ])

let fig13 =
  experiment "fig13" "end-to-end inference latency, batch 1 (ms)"
    ~claim:
      "Hidet outperforms every baseline on most models, up to 1.48x; Ansor remains \
       competitive on MobileNet-V2 depthwise convolutions"
    (fun () ->
      let row model =
        let lats =
          List.map (fun (module Eng : E.S) -> (Eng.name, (e2e (module Eng) model).E.latency))
            fig13_engines
        in
        let best_baseline =
          List.fold_left (fun acc (n, l) -> if n = "hidet" then acc else Float.min acc l)
            infinity lats
        in
        Json.Obj
          ((("model", Json.Str model) :: List.map (fun (n, l) -> (n ^ "_ms", Json.Num (ms l))) lats)
          @ [ ("speedup", Json.Num (best_baseline /. List.assoc "hidet" lats)) ])
      in
      [ ("models", Json.Arr (List.map row models)) ])
    (fun r ->
      let baselines = [ "pytorch"; "onnxruntime"; "autotvm"; "ansor" ] in
      List.map
        (fun row ->
          ( sprintf "hidet must be no slower than the best baseline on %s" (R.str "model" row),
            R.num "hidet_ms" row <= best_of baselines "_ms" row ))
        (R.list "models" r))

let fig14 =
  experiment "fig14" "tuning cost (hours of schedule measurement)"
    ~claim:
      "Hidet cuts tuning cost ~20x vs AutoTVM and ~11x vs Ansor; AutoTVM's \
       Bert/GPT-2 spaces are tiny and ineffective: cheap to tune, slow to run"
    (fun () ->
      let row model =
        (* Fresh + cached: the from-scratch cost of the model, independent
           of how warm the schedule cache already is. *)
        let hours name = E.total_tuning_cost (e2e (engine_named name) model) /. 3600. in
        let a = hours "autotvm" and n = hours "ansor" and h = hours "hidet" in
        Json.Obj
          [
            ("model", Json.Str model);
            ("autotvm_h", Json.Num a);
            ("ansor_h", Json.Num n);
            ("hidet_h", Json.Num h);
            ("autotvm_vs_hidet", Json.Num (a /. h));
            ("ansor_vs_hidet", Json.Num (n /. h));
          ]
      in
      [ ("models", Json.Arr (List.map row models)) ])
    (fun r ->
      List.concat_map
        (fun row ->
          List.map
            (fun tuner ->
              ( sprintf "hidet's tuning cost must be >= 5x below %s's on %s" tuner
                  (R.str "model" row),
                R.num (tuner ^ "_h") row >= 5. *. R.num "hidet_h" row ))
            [ "autotvm"; "ansor" ])
        (R.list "models" r))

(* Histogram bucket upper bounds (us); the last bucket is open. *)
let fig15_buckets = [ 25.; 50.; 73.; 100.; 200.; 400.; 800. ]

let fig15 =
  experiment "fig15" "schedule latency distribution (ResNet-50 conv: 28x28, 256ch, k3, s2)"
    ~claim:
      "most of Hidet's ~180 schedules beat the 73us mark while the sampled \
       input-centric schedules form a long slow tail"
    (fun () ->
      let x_shape = [ 1; 256; 28; 28 ] and w_shape = [ 256; 256; 3; 3 ] in
      let stride = 2 and pad = 1 in
      let m = 256 and n = 14 * 14 and k = 256 * 9 in
      let feasible compile =
        match compile () with
        | c ->
          let l = C.latency dev c in
          if l < infinity then Some (us l) else None
        | exception Invalid_argument _ -> None
      in
      let hidet =
        List.filter_map
          (fun cfg ->
            feasible (fun () -> MT.compile ~a_batched:false ~b_batched:true ~m ~n ~k cfg))
          (Space.matmul_with_split_k ~m ~n)
      in
      let sampled ~trials ~seed =
        let rng = Random.State.make [| seed |] in
        List.filter_map Fun.id
          (List.init trials (fun _ ->
               let s = IC.sample_gemm_sched rng ~m ~n ~k in
               feasible (fun () -> LS.conv2d ~x_shape ~w_shape ~stride ~pad_h:pad ~pad_w:pad s)))
      in
      let sample name lats =
        let count lo hi = List.length (List.filter (fun l -> l >= lo && l < hi) lats) in
        let bounds = fig15_buckets @ [ infinity ] in
        Json.Obj
          [
            ("sample", Json.Str name);
            ("valid", R.int (List.length lats));
            ("min_us", Json.Num (List.fold_left Float.min infinity lats));
            ("median_us", Json.Num (List.nth (List.sort compare lats) (List.length lats / 2)));
            ("under_73us", R.int (count 0. 73.));
            ( "histogram",
              Json.Arr
                (List.map2 (fun lo hi -> R.int (count lo hi)) (0. :: fig15_buckets) bounds) );
          ]
      in
      [
        ("bucket_upper_us", Json.Arr (List.map (fun b -> Json.Num b) fig15_buckets));
        ( "samples",
          Json.Arr
            [
              sample "hidet" hidet;
              sample "autotvm" (sampled ~trials:1000 ~seed:11);
              sample "ansor" (sampled ~trials:800 ~seed:13);
            ] );
      ])
    (fun r ->
      let samples = R.list "samples" r in
      let get name = List.find (fun s -> R.str "sample" s = name) samples in
      let hidet = get "hidet" and others = [ get "autotvm"; get "ansor" ] in
      [
        ( "hidet's fastest schedule must beat both samples' fastest",
          List.for_all (fun s -> R.num "min_us" hidet < R.num "min_us" s) others );
        ( "hidet must have more points under 73us than both samples together",
          R.num "under_73us" hidet
          > List.fold_left (fun acc s -> acc +. R.num "under_73us" s) 0. others );
      ])

let fig16 =
  experiment "fig16" "matmul latency on consecutive input sizes (us)"
    ~claim:
      "the input-centric tuners fluctuate with the size's divisor structure and \
       find no valid schedule at the prime 2039 (null), while Hidet's predicated \
       hardware-centric schedules stay flat"
    (fun () ->
      let row size =
        let m = size and n = size and k = size in
        let loop strategy trials seed =
          match
            IC.tune_gemm ~strategy ~trials ~device:dev ~seed ~m ~n ~k
              ~compile:(fun s -> LS.gemm ~m ~n ~k s)
              ()
          with
          | Some t -> Json.Num (us t.IC.latency)
          | None -> Json.Null
        in
        let _, hidet = tune_matmul ~m ~n ~k (Space.matmul_with_split_k ~m ~n) in
        Json.Obj
          [
            ("size", R.int size);
            ("autotvm_us", loop IC.Random_search 1000 size);
            ("ansor_us", loop IC.Evolutionary 800 (size + 7));
            ("hidet_us", Json.Num (us hidet));
          ]
      in
      [
        ( "sizes",
          Json.Arr
            (List.map row [ 2030; 2032; 2034; 2036; 2038; 2039; 2040; 2042; 2044; 2046; 2048 ])
        );
      ])
    (fun r ->
      let sizes = R.list "sizes" r in
      let hidet = List.map (R.num "hidet_us") sizes in
      let spread =
        (List.fold_left Float.max 0. hidet /. List.fold_left Float.min infinity hidet) -. 1.
      in
      let prime = List.find (fun s -> R.num "size" s = 2039.) sizes in
      [
        ( sprintf "hidet must vary < 1%% over sizes 2030-2048 (got %.2f%%)" (100. *. spread),
          spread < 0.01 );
        ( "both input-centric tuners must fail at the prime 2039",
          Json.member "autotvm_us" prime = Some Json.Null
          && Json.member "ansor_us" prime = Some Json.Null );
      ])

let fig17 =
  experiment "fig17" "ResNet-50 latency across batch sizes (ms)"
    ~claim:
      "the tuners beat ONNX Runtime at small batch but lose their edge at batch 8 \
       where double buffering dominates; Hidet wins at all sizes"
    (fun () ->
      let engines : (module E.S) list =
        [ (module Lib.Ort); (module IC.Autotvm); (module IC.Ansor); (module HE) ]
      in
      let row batch =
        Json.Obj
          (("batch", R.int batch)
          :: List.map
               (fun (module Eng : E.S) ->
                 let r = Eng.compile dev (M.resnet50 ~batch ()) in
                 (Eng.name ^ "_ms", Json.Num (ms r.E.latency)))
               engines)
      in
      [
        ( "deviation",
          Json.Str "the tuners' edge over ONNX Runtime shrinks with batch size but does not \
                    cross over at batch 8 (not gated)" );
        ("batches", Json.Arr (List.map row [ 1; 4; 8 ]));
      ])
    (fun r ->
      List.map
        (fun row ->
          ( sprintf "hidet must be no slower than the best baseline at batch %.0f"
              (R.num "batch" row),
            R.num "hidet_ms" row <= best_of [ "onnxruntime"; "autotvm"; "ansor" ] "_ms" row ))
        (R.list "batches" r))

let fig18 =
  experiment "fig18" "Conv2d-BN-ReLU sub-graphs of ResNet-50 (us)"
    ~claim:
      "implicit-GEMM convolution with fused im2col/BN/ReLU and parallel-k reduction \
       lets Hidet beat both on most shapes, especially the small-spatial late stages"
    (fun () ->
      let subgraph (x_shape, w_shape, stride, pad_h, pad_w) =
        let g = G.create () in
        G.name g "conv_bn_relu";
        let x = G.input g x_shape in
        let w = G.constant_rand g ~seed:5 w_shape in
        let oc = List.hd w_shape in
        let scale = G.constant_rand g ~seed:6 [ oc ] in
        let shift = G.constant_rand g ~seed:7 [ oc ] in
        let c = G.add_op g (Op.Conv2d { stride; pad_h; pad_w }) [ x; w ] in
        G.set_outputs g [ G.relu g (G.scale_shift g c ~scale ~shift) ];
        g
      in
      let row i ((x_shape, w_shape, _, _, _) as cfg) =
        let lat (module Eng : E.S) = Json.Num (us (Eng.compile dev (subgraph cfg)).E.latency) in
        Json.Obj
          [
            ("layer", R.int (i + 1));
            ("input", Json.Str (dims x_shape));
            ("weight", Json.Str (dims w_shape));
            ("onnxruntime_us", lat (module Lib.Ort));
            ("ansor_us", lat (module IC.Ansor));
            ("hidet_us", lat (module HE));
          ]
      in
      [ ("layers", Json.Arr (List.mapi row (resnet_convs ()))) ])
    (fun r ->
      List.map
        (fun row ->
          ( sprintf "hidet must beat onnxruntime and ansor on layer %.0f" (R.num "layer" row),
            R.num "hidet_us" row < best_of [ "onnxruntime"; "ansor" ] "_us" row ))
        (R.list "layers" r))

let fig19 =
  experiment "fig19" "TensorRT vs Hidet (ms)"
    ~claim:
      "Hidet wins or ties on the CNNs thanks to per-shape tuning; TensorRT wins on \
       Bert/GPT-2 with its dedicated fused-attention kernels"
    (fun () ->
      let row model =
        let trt = (e2e (module Lib.Tensorrt) model).E.latency in
        let hidet = (e2e (module HE) model).E.latency in
        Json.Obj
          [
            ("model", Json.Str model);
            ("tensorrt_ms", Json.Num (ms trt));
            ("hidet_ms", Json.Num (ms hidet));
            ("trt_vs_hidet", Json.Num (trt /. hidet));
          ]
      in
      [
        ( "deviation",
          Json.Str "TensorRT's TF32 tactics also win ResNet-50 and Inception-V3 against \
                    Hidet's fp32 column (not gated)" );
        ("models", Json.Arr (List.map row models));
      ])
    (fun r ->
      List.filter_map
        (fun row ->
          let model = R.str "model" row in
          if not (List.mem model [ "bert"; "gpt2" ]) then None
          else
            Some
              ( sprintf "tensorrt's fused attention must beat hidet on %s" model,
                R.num "tensorrt_ms" row < R.num "hidet_ms" row ))
        (R.list "models" r))

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

(* A gain gate: [slow /. fast > 1] on each row, [label] naming the row. *)
let gains_gate ~what ~slow ~fast ~label rows =
  List.map
    (fun row ->
      ( sprintf "%s must gain > 1x on %s" what (R.str label row),
        R.num slow row > R.num fast row ))
    rows

let ablation_double_buffer =
  experiment "ablation_double_buffer" "double buffering (the paper's Fig. 5 optimization)"
    ~claim:
      "overlapping the next tile's loads with compute speeds up every tuned fp32 matmul"
    (fun () ->
      let row (m, n, k) =
        let best ~allow_db =
          snd
            (tune_matmul ~m ~n ~k
               (List.filter
                  (fun (c : MT.config) -> (allow_db || c.MT.stages = 1) && not c.MT.use_tensor_core)
                  (Space.matmul_with_split_k ~m ~n)))
        in
        let off = best ~allow_db:false and on_ = best ~allow_db:true in
        Json.Obj
          [
            ("shape", Json.Str (shape_name (m, n, k)));
            ("db_off_us", Json.Num (us off));
            ("db_on_us", Json.Num (us on_));
            ("gain", Json.Num (off /. on_));
          ]
      in
      [
        ( "shapes",
          Json.Arr (List.map row [ (1024, 1024, 1024); (2048, 2048, 2048); (512, 512, 4096) ]) );
      ])
    (fun r ->
      gains_gate ~what:"double buffering" ~slow:"db_off_us" ~fast:"db_on_us" ~label:"shape"
        (R.list "shapes" r))

(* The widened space's best split-k=1 schedule ties the split-k variants
   here, so this shape reports 1.00x and is not gated. *)
let split_k_tie = "2048x49x1024"

let ablation_split_k =
  experiment "ablation_split_k" "split-k parallel reduction (paper section 6.2.4)"
    ~claim:
      "splitting the reduction across thread blocks pays off on low-parallelism GEMMs"
    (fun () ->
      let row (m, n, k) =
        let best ~allow_sk =
          tune_matmul ~m ~n ~k
            (List.filter
               (fun (c : MT.config) -> allow_sk || c.MT.split_k = 1)
               (Space.matmul_with_split_k ~m ~n))
        in
        let _, off = best ~allow_sk:false in
        let cfg, on_ = best ~allow_sk:true in
        Json.Obj
          [
            ("shape", Json.Str (shape_name (m, n, k)));
            ("sk1_us", Json.Num (us off));
            ("tuned_us", Json.Num (us on_));
            ("split_k", R.int cfg.MT.split_k);
            ("gain", Json.Num (off /. on_));
          ]
      in
      [
        ( "shapes",
          Json.Arr (List.map row [ (512, 49, 4608); (64, 64, 4096); (2048, 49, 1024) ]) );
      ])
    (fun r ->
      gains_gate ~what:"split-k" ~slow:"sk1_us" ~fast:"tuned_us" ~label:"shape"
        (List.filter (fun row -> R.str "shape" row <> split_k_tie) (R.list "shapes" r)))

let model_ablation name title ~claim ~off_label ~on_label ~off ~on_ ~kernels =
  experiment name title ~claim
    (fun () ->
      let row model =
        let lat options = snd (HE.compile_plan ~options dev (M.by_name model)) in
        let a = lat off and b = lat on_ in
        Json.Obj
          ([
             ("model", Json.Str model);
             (off_label ^ "_ms", Json.Num (ms a.E.latency));
             (on_label ^ "_ms", Json.Num (ms b.E.latency));
           ]
          @ (if kernels then
               [
                 (off_label ^ "_kernels", R.int a.E.kernel_count);
                 (on_label ^ "_kernels", R.int b.E.kernel_count);
               ]
             else [])
          @ [ ("gain", Json.Num (a.E.latency /. b.E.latency)) ])
      in
      [ ("models", Json.Arr (List.map row [ "resnet50"; "bert" ])) ])
    (fun r ->
      gains_gate ~what:on_label ~slow:(off_label ^ "_ms") ~fast:(on_label ^ "_ms") ~label:"model"
        (R.list "models" r))

let ablation_fusion =
  model_ablation "ablation_fusion" "post-scheduling fusion on end-to-end models"
    ~claim:
      "fusing elementwise operators into the scheduled anchor kernels cuts kernels and \
       end-to-end latency"
    ~off_label:"unfused" ~on_label:"fused"
    ~off:{ HE.default_options with HE.fuse = false }
    ~on_:HE.default_options ~kernels:true

let ablation_tensor_core =
  model_ablation "ablation_tensor_core" "tensor-core MMA path (TF32) vs CUDA-core fp32"
    ~claim:"the TF32 tensor-core templates beat the fp32 CUDA-core default end to end"
    ~off_label:"fp32" ~on_label:"tf32" ~off:HE.default_options
    ~on_:{ HE.default_options with HE.allow_tensor_core = true }
    ~kernels:false

let ablation_device_sweep =
  experiment "ablation_device_sweep" "hardware-centric retargeting (RTX 3090 vs A100)"
    ~claim:
      "the schedule space is defined by hardware limits, not input sizes, so \
       retargeting is re-running the exhaustive tuner on the A100 description"
    (fun () ->
      let devices = Hidet_gpu.Device.[ rtx3090; a100 ] in
      let name (d : Hidet_gpu.Device.t) = d.Hidet_gpu.Device.name in
      let matmul (m, n, k) =
        let best =
          List.map
            (fun device -> tune_matmul ~device ~m ~n ~k (Space.matmul_with_split_k ~m ~n))
            devices
        in
        Json.Obj
          (("shape", Json.Str (shape_name (m, n, k)))
          :: List.concat
               (List.map2
                  (fun d (cfg, l) ->
                    [
                      (name d ^ "_config", Json.Str (MT.config_to_string cfg));
                      (name d ^ "_us", Json.Num (us l));
                    ])
                  devices best)
          @ [ ("gain", Json.Num (snd (List.hd best) /. snd (List.nth best 1))) ])
      in
      (* End to end: the same model retuned for each device. *)
      let resnet d =
        let r = HE.compile d (M.resnet50 ()) in
        Json.Obj
          [
            ("device", Json.Str (name d));
            ("resnet50_ms", Json.Num (ms r.E.latency));
            ("kernels", R.int r.E.kernel_count);
          ]
      in
      [
        ("matmuls", Json.Arr (List.map matmul [ (1024, 1024, 1024); (512, 49, 4608) ]));
        ("models", Json.Arr (List.map resnet devices));
      ])
    (fun r ->
      gains_gate ~what:"retuning for the a100" ~slow:"rtx3090_us" ~fast:"a100_us" ~label:"shape"
        (R.list "matmuls" r))

let all =
  [
    table1;
    fig7;
    fig13;
    fig14;
    fig15;
    fig16;
    fig17;
    fig18;
    fig19;
    ablation_double_buffer;
    ablation_split_k;
    ablation_fusion;
    ablation_tensor_core;
    ablation_device_sweep;
  ]
