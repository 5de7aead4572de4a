module Compiled = Hidet_sched.Compiled
module MT = Hidet_sched.Matmul_template
module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module Engine = Hidet_runtime.Engine
module Plan = Hidet_runtime.Plan
module GC = Hidet_runtime.Group_compiler
module Device = Hidet_gpu.Device

(* The library's fixed kernel list, largest tiles first: classic
   cuBLAS/CUTLASS SKUs with double buffering. cuDNN/cuBLAS run fp32 by
   default (TF32 is opt-in); TensorRT enables TF32 tensor cores. *)
let matmul_configs ~tensor_core =
  let mk block_m block_n block_k warp_m warp_n =
    {
      MT.block_m;
      block_n;
      block_k;
      warp_m;
      warp_n;
      (* Libraries ship double-buffered kernels; the tensor-core SKUs use
         the deeper Ampere multistage pipeline. *)
      stages = (if tensor_core then 3 else 2);
      split_k = 1;
      use_tensor_core = tensor_core;
      swizzle = true;
    }
  in
  [
    mk 128 128 16 64 64;
    mk 128 64 16 64 32;
    mk 64 64 16 32 32;
    mk 64 32 16 32 16;
    mk 32 32 16 16 16;
  ]

let ceil_div a b = (a + b - 1) / b

(* Size heuristic, not tuning: prefer the biggest tile that still yields a
   reasonably parallel grid. This mirrors library dispatch tables, which are
   excellent on common large shapes and waste the GPU on small or odd
   ones (the paper's Fig. 16/17 observations). *)
let pick_matmul ?(tensor_core = false) ~m ~n ~k () =
  ignore k;
  let configs = matmul_configs ~tensor_core in
  (* Dispatch tables favor large tiles; they only fall back when the grid
     would be degenerate, which leaves the GPU underfilled at small batch
     sizes (paper Fig. 17). *)
  let enough cfg = ceil_div m cfg.MT.block_m * ceil_div n cfg.MT.block_n >= 24 in
  match List.find_opt enough configs with
  | Some cfg -> cfg
  | None -> List.nth configs (List.length configs - 1)

let fused_attention_latency (d : Device.t) ~heads ~seq ~dim =
  let f = float_of_int in
  let flops = 4. *. f heads *. f seq *. f seq *. f dim in
  let bytes = 4. *. 4. *. f heads *. f seq *. f dim in
  let effective_tensor = 0.5 *. Device.tensor_flops d in
  d.Device.kernel_launch_overhead
  +. Float.max (flops /. effective_tensor) (bytes /. d.Device.mem_bandwidth)
  +. (f seq *. 2e-9 (* softmax row latencies inside the fused kernel *))

(* Depthwise dispatch: a decent fixed schedule (libraries ship good
   depthwise kernels, but again without input-size tuning). *)
let pick_depthwise ~p =
  let pick_div target =
    let rec best d candidate =
      if d > p then candidate
      else
        let candidate =
          if p mod d = 0 && d <= target && d > candidate then d else candidate
        in
        best (d + 1) candidate
    in
    best 1 1
  in
  let tile = pick_div 256 in
  let per_thread = if tile mod 2 = 0 then 2 else 1 in
  { Loop_sched.dw_tile_p = tile; dw_thread_p = per_thread; dw_unroll = true }

(* TensorRT times every tactic (kernel variant) in its catalog for each
   layer while building the engine; PyTorch/ORT dispatch by heuristic. *)
let tactic_configs ~tensor_core =
  matmul_configs ~tensor_core
  @ List.concat_map
      (fun sk ->
        List.filter_map
          (fun c ->
            if c.MT.block_m <= 64 && c.MT.block_n <= 64 then
              Some { c with MT.split_k = sk }
            else None)
          (matmul_configs ~tensor_core))
      [ 4; 8 ]

let schedule_matmul ~tensor_core ~tactic_timing device
    { GC.batch; a_batched; b_batched; m; n; k } =
  let compile cfg = MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg in
  match
    if tactic_timing then
      Hidet_sched.Tuner.tune ~device
        ~candidates:(Array.of_list (tactic_configs ~tensor_core))
        ~compile ()
    else None
  with
  | Some (_, c, _) -> c
  | None -> compile (pick_matmul ~tensor_core ~m ~n ~k ())

let schedule_depthwise (anchor : G.node) in_shapes =
  match (anchor.G.op, in_shapes) with
  | Op.Depthwise_conv2d { stride; padding }, [ x_shape; w_shape ] -> (
    let p =
      match anchor.G.shape with
      | [ _; _; oh; ow ] -> oh * ow
      | _ -> invalid_arg "library: dw shape"
    in
    match
      Loop_sched.depthwise ~x_shape ~w_shape ~stride ~padding (pick_depthwise ~p)
    with
    | c -> Some c
    | exception Invalid_argument _ -> None)
  | _ -> None

type fusion_level = No_fusion | Pattern_fusion | Full_fusion

let may_fuse_prologue level (n : G.node) =
  match level with
  | Full_fusion -> true
  | No_fusion | Pattern_fusion -> (
    (* The conv kernel's internal im2col always fuses (cuDNN implicit
       GEMM); user-level producers do not. *)
    match n.G.op with Op.Im2col _ -> true | _ -> false)

let may_fuse_epilogue level (n : G.node) =
  match level with
  | Full_fusion -> true
  | No_fusion -> ( match n.G.op with Op.Reshape _ -> true | _ -> false)
  | Pattern_fusion -> (
    (* ORT's FusedConv patterns: bias/BN, activations, and the residual Add
       (Conv+Add+Relu); no transform or arbitrary-expression fusion. *)
    match n.G.op with
    | Op.Reshape _ | Op.Scale_shift | Op.Bias_add | Op.Binary Op.Add
    | Op.Unary (Op.Relu | Op.Gelu | Op.Sigmoid | Op.Tanh_act | Op.Clip _) ->
      true
    | _ -> false)

let compile ~name ~level ?(tensor_core = false) ?(tactic_timing = false) device g =
  Engine.compile ~engine:name ~lower_convs:true ~fidelity:`Analytic device g
    {
      GC.schedule_anchor =
        GC.schedule_anchor
          ~matmul:(fun _ _ mm ->
            Some (schedule_matmul ~tensor_core ~tactic_timing device mm))
          ~own:schedule_depthwise;
      may_fuse_prologue = may_fuse_prologue level;
      may_fuse_epilogue = may_fuse_epilogue level;
    }
    (* Libraries ship pre-tuned kernels: no tuning cost at deployment.
       TensorRT's tactic timing happens inside the build (compile_wall). *)
    (fun () -> { Engine.fresh = 0.; cached = 0.; wall = 0. })

(* TensorRT's plan latency with each (QK^T matmul -> scale -> softmax ->
   matmul V) region's step costs replaced by one fused-attention kernel
   estimate. *)
let with_fused_attention device (plan : Plan.t) base_latency =
  let g = plan.Plan.graph in
  let step_latency node_id =
    List.fold_left
      (fun acc (s : Plan.step) ->
        if s.Plan.out_node = node_id then
          acc +. Compiled.latency device s.Plan.compiled
        else acc)
      0. plan.Plan.steps
  in
  List.fold_left
    (fun lat (n : G.node) ->
      match n.G.op with
      | Op.Softmax -> (
        let producer_chain id =
          let node = G.node g id in
          match node.G.op with
          | Op.Unary (Op.Scale_by _) -> List.hd node.G.inputs
          | _ -> id
        in
        let p = producer_chain (List.hd n.G.inputs) in
        let pn = G.node g p in
        let consumers = G.consumers g n.G.id in
        match (pn.G.op, consumers) with
        | Op.Matmul, [ c ] when (G.node g c).G.op = Op.Matmul -> (
          match n.G.shape with
          | [ heads; seq; _ ] ->
            let dim =
              match (G.node g c).G.shape with
              | [ _; _; d ] -> d
              | _ -> seq
            in
            let saved =
              step_latency p +. step_latency n.G.id +. step_latency c
              +. step_latency (List.hd n.G.inputs)
            in
            lat -. saved +. fused_attention_latency device ~heads ~seq ~dim
          | _ -> lat)
        | _ -> lat)
      | _ -> lat)
    base_latency (G.nodes g)

module Pytorch = struct
  let name = "pytorch"

  let caps =
    {
      Engine.graph_opt = Engine.Low;
      kernel_opt = Engine.High;
      tuning_time = Engine.High;
      engineering_effort = Engine.Low;
    }

  let compile device g = compile ~name ~level:No_fusion device g
end

module Ort = struct
  let name = "onnxruntime"

  let caps =
    {
      Engine.graph_opt = Engine.Medium;
      kernel_opt = Engine.High;
      tuning_time = Engine.High;
      engineering_effort = Engine.Low;
    }

  let compile device g = compile ~name ~level:Pattern_fusion device g
end

module Tensorrt = struct
  let name = "tensorrt"

  let caps =
    {
      Engine.graph_opt = Engine.High;
      kernel_opt = Engine.High;
      tuning_time = Engine.High;
      engineering_effort = Engine.Low;
    }

  (* The [compile_plan] span's [latency_us] is the plan's; this span's is
     the one reported, with the fused-attention credit. *)
  let compile device g =
    let r =
      compile ~name ~level:Full_fusion ~tensor_core:true ~tactic_timing:true
        device g
    in
    Hidet_obs.Trace.span "fused_attention" (fun sp ->
        let latency = with_fused_attention device r.Engine.plan r.Engine.latency in
        Hidet_obs.Trace.add sp "latency_us" (Printf.sprintf "%.3f" (latency *. 1e6));
        { r with Engine.latency })
end
