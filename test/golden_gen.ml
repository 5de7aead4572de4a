(* Emits CUDA C for the golden-file tests (test/golden/*.cu).

   Run as a standalone executable, one compile per invocation. Generated
   names are numbered per kernel in binding order, so the output depends
   only on the kernel, not on what else the process instantiated.

   To refresh the goldens after an intentional codegen change:
     dune build @golden-regen   (or: dune promote after a failing diff) *)

module MT = Hidet_sched.Matmul_template
module C = Hidet_sched.Compiled
module G = Hidet_graph.Graph
module HE = Hidet.Hidet_engine
module Plan = Hidet_runtime.Plan

let dev = Hidet_gpu.Device.rtx3090

(* The quickstart example's matmul: 123x77x45 is divisible by none of the
   tile sizes, so the source exercises predicated partial tiles. *)
let matmul () =
  print_string (C.cuda_source (MT.compile ~m:123 ~n:77 ~k:45 MT.default_config))

(* The conv_fusion example's Conv2d-BN-ReLU as a single implicit-GEMM
   kernel: im2col prologue + matmul anchor + reshape/scale-shift/relu
   epilogues. *)
let fused_conv () =
  let n, c, h, oc, kernel, stride, padding = (1, 8, 14, 16, 3, 1, 1) in
  let g = G.create () in
  G.name g "conv_bn_relu";
  let x = G.input g [ n; c; h; h ] in
  let w = G.constant_rand g ~seed:1 [ oc; c; kernel; kernel ] in
  let scale = G.constant_rand g ~seed:2 [ oc ] in
  let shift = G.constant_rand g ~seed:3 [ oc ] in
  let conv = G.conv2d g x w ~stride ~padding in
  let out = G.relu g (G.scale_shift g conv ~scale ~shift) in
  G.set_outputs g [ out ];
  let plan, _ = HE.compile_plan dev g in
  print_string (Plan.cuda_source plan)

let () =
  match Sys.argv with
  | [| _; "matmul" |] -> matmul ()
  | [| _; "fused_conv" |] -> fused_conv ()
  | _ ->
    prerr_endline "usage: golden_gen (matmul|fused_conv)";
    exit 2
