(* Tests for the model zoo: architectural sanity of the five benchmark
   networks (shapes, FLOPs, structure) and exact end-to-end correctness of
   the compiled tiny configurations against the CPU reference. *)

module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module M = Hidet_models.Models
module HE = Hidet.Hidet_engine
module Plan = Hidet_runtime.Plan
module Ref = Hidet_graph.Reference
module T = Hidet_tensor.Tensor

let dev = Hidet_gpu.Device.rtx3090
let shape = Alcotest.(list int)

let count_op g pred =
  List.length (List.filter (fun (n : G.node) -> pred n.G.op) (G.nodes g))

let test_resnet50_structure () =
  let g = M.resnet50 () in
  Alcotest.check shape "output" [ 1; 1000 ] (G.node_shape g (List.hd (G.outputs g)));
  Alcotest.(check int) "53 convolutions" 53
    (count_op g (function Op.Conv2d _ -> true | _ -> false));
  Alcotest.(check int) "16 residual adds" 16
    (count_op g (function Op.Binary Op.Add -> true | _ -> false));
  (* ~8.2 GFLOPs at batch 1 (2 flops per MAC). *)
  let gflops = G.flops g /. 1e9 in
  Alcotest.(check bool) (Printf.sprintf "flops %.2f in [7.5, 9.0]" gflops) true
    (gflops > 7.5 && gflops < 9.0)

let test_inception_structure () =
  let g = M.inception_v3 () in
  Alcotest.check shape "output" [ 1; 1000 ] (G.node_shape g (List.hd (G.outputs g)));
  Alcotest.(check int) "94 convolutions" 94
    (count_op g (function Op.Conv2d _ -> true | _ -> false));
  Alcotest.(check bool) "has asymmetric convs" true
    (count_op g (function
       | Op.Conv2d { pad_h; pad_w; _ } -> pad_h <> pad_w
       | _ -> false)
    > 0);
  Alcotest.(check bool) "has concats" true
    (count_op g (function Op.Concat _ -> true | _ -> false) >= 11);
  let gflops = G.flops g /. 1e9 in
  Alcotest.(check bool) (Printf.sprintf "flops %.2f in [10, 13]" gflops) true
    (gflops > 10. && gflops < 13.)

let test_mobilenet_structure () =
  let g = M.mobilenet_v2 () in
  Alcotest.check shape "output" [ 1; 1000 ] (G.node_shape g (List.hd (G.outputs g)));
  Alcotest.(check int) "17 depthwise convolutions" 17
    (count_op g (function Op.Depthwise_conv2d _ -> true | _ -> false));
  let gflops = G.flops g /. 1e9 in
  Alcotest.(check bool) (Printf.sprintf "flops %.2f in [0.5, 0.8]" gflops) true
    (gflops > 0.5 && gflops < 0.8)

let test_transformer_structure () =
  List.iter
    (fun (g, name) ->
      Alcotest.check shape (name ^ " output") [ 1; 128; 768 ]
        (G.node_shape g (List.hd (G.outputs g)));
      Alcotest.(check int) (name ^ " softmax per layer") 12
        (count_op g (function Op.Softmax -> true | _ -> false));
      Alcotest.(check int) (name ^ " layernorms") 25
        (count_op g (function Op.Layernorm _ -> true | _ -> false));
      (* 12 layers x 6 projection matmuls + 2 attention bmms = 96 matmuls. *)
      Alcotest.(check int) (name ^ " matmuls") 96
        (count_op g (function Op.Matmul -> true | _ -> false));
      let gflops = G.flops g /. 1e9 in
      Alcotest.(check bool)
        (Printf.sprintf "%s flops %.2f in [20, 25]" name gflops)
        true
        (gflops > 20. && gflops < 25.))
    [ (M.bert_base (), "bert"); (M.gpt2 (), "gpt2") ]

let test_batch_parameter () =
  let g1 = M.resnet50 () and g8 = M.resnet50 ~batch:8 () in
  Alcotest.check shape "b8 input" [ 8; 3; 224; 224 ]
    (G.node_shape g8 (List.hd (G.input_ids g8)));
  Alcotest.(check bool) "flops scale with batch" true
    (Float.abs ((G.flops g8 /. G.flops g1) -. 8.) < 0.01)

let test_by_name () =
  List.iter
    (fun name -> ignore (M.by_name name))
    [ "resnet50"; "inception_v3"; "mobilenet_v2"; "bert"; "gpt2" ];
  Alcotest.(check bool) "unknown rejected" true
    (try
       ignore (M.by_name "vgg");
       false
     with Invalid_argument _ -> true)

let test_deterministic_weights () =
  let g1 = M.Tiny.cnn () and g2 = M.Tiny.cnn () in
  let x = T.rand ~seed:1 [ 1; 3; 16; 16 ] in
  Alcotest.(check bool) "same graph twice, same output" true
    (T.allclose (Ref.run1 g1 [ x ]) (Ref.run1 g2 [ x ]))

(* --- tiny models through the full compile pipeline --------------------------- *)

let compiled_matches_reference ?(rtol = 1e-2) name mk =
  let g : G.t = mk () in
  let ishape = G.node_shape g (List.hd (G.input_ids g)) in
  let x = T.rand ~seed:7 ishape in
  let expect = Ref.run1 g [ x ] in
  let plan, result = HE.compile_plan dev g in
  let got = Plan.run1 plan [ x ] in
  if not (T.allclose ~rtol ~atol:1e-3 expect got) then
    Alcotest.failf "%s: compiled output differs (max %g)" name
      (T.max_abs_diff expect got);
  Alcotest.(check bool) (name ^ " latency finite") true
    (result.Hidet_runtime.Engine.latency < infinity)

let test_tiny_cnn () = compiled_matches_reference "tiny cnn" M.Tiny.cnn
let test_tiny_separable () = compiled_matches_reference "separable" M.Tiny.separable
let test_tiny_transformer () =
  compiled_matches_reference "transformer" M.Tiny.transformer
let test_tiny_inception () =
  compiled_matches_reference "inception module" M.Tiny.inception_module

let test_tiny_cnn_without_fusion () =
  (* The fusion-disabled pipeline must agree numerically too. *)
  let g = M.Tiny.cnn () in
  let x = T.rand ~seed:8 [ 1; 3; 16; 16 ] in
  let expect = Ref.run1 g [ x ] in
  let plan, _ =
    HE.compile_plan ~options:{ HE.default_options with HE.fuse = false } dev g
  in
  Alcotest.(check bool) "unfused agrees" true
    (T.allclose ~rtol:1e-2 ~atol:1e-3 expect (Plan.run1 plan [ x ]))

let test_tiny_cnn_direct_conv () =
  (* With implicit-GEMM lowering disabled, convs run rule-based; semantics
     must be identical. *)
  let g = M.Tiny.cnn () in
  let x = T.rand ~seed:9 [ 1; 3; 16; 16 ] in
  let expect = Ref.run1 g [ x ] in
  let plan, _ =
    HE.compile_plan
      ~options:{ HE.default_options with HE.lower_convs = false }
      dev g
  in
  Alcotest.(check bool) "direct conv agrees" true
    (T.allclose ~rtol:1e-2 ~atol:1e-3 expect (Plan.run1 plan [ x ]))

(* The CPU reference's outputs on the tiny models, bit for bit: an MD5 over
   the output shape and every element's [Int64.bits_of_float], on inputs
   drawn at fixed seeds. The digests were taken from the list-indexed
   reference the flat-offset one replaced, so any change to an operator's
   loop or summation order fails here. *)
let reference_digest g =
  let inputs =
    List.mapi
      (fun i id -> T.rand ~seed:(100 + i) (G.node_shape g id))
      (G.input_ids g)
  in
  let out = Ref.run1 g inputs in
  let b = Buffer.create 4096 in
  List.iter (fun d -> Buffer.add_string b (string_of_int d ^ ";")) (T.shape out);
  Array.iter
    (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))
    (T.data out);
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_reference_digests =
  [
    ("tiny_cnn", "59e8343042c21acc63cdf9fb14f05091");
    ("tiny_separable", "9e38ac3f96e15a79391908c21c4c7ece");
    ("tiny_transformer", "223b9e5fcc807269af91cdca50a00ff4");
    ("tiny_inception", "6ab0663c6c19bbee000b9efd0886acb8");
  ]

let test_reference_digests () =
  List.iter
    (fun (name, mk) ->
      Alcotest.(check string) name (List.assoc name pinned_reference_digests)
        (reference_digest (mk ())))
    M.tiny_all

let () =
  Alcotest.run "hidet_models"
    [
      ( "architecture",
        [
          Alcotest.test_case "resnet50" `Quick test_resnet50_structure;
          Alcotest.test_case "inception_v3" `Quick test_inception_structure;
          Alcotest.test_case "mobilenet_v2" `Quick test_mobilenet_structure;
          Alcotest.test_case "transformers" `Quick test_transformer_structure;
          Alcotest.test_case "batch parameter" `Quick test_batch_parameter;
          Alcotest.test_case "by_name" `Quick test_by_name;
          Alcotest.test_case "deterministic weights" `Quick test_deterministic_weights;
        ] );
      ( "tiny pipeline correctness",
        [
          Alcotest.test_case "cnn" `Quick test_tiny_cnn;
          Alcotest.test_case "separable (depthwise)" `Quick test_tiny_separable;
          Alcotest.test_case "transformer layer" `Quick test_tiny_transformer;
          Alcotest.test_case "inception module" `Quick test_tiny_inception;
          Alcotest.test_case "cnn without fusion" `Quick test_tiny_cnn_without_fusion;
          Alcotest.test_case "cnn direct conv" `Quick test_tiny_cnn_direct_conv;
          Alcotest.test_case "reference digests" `Quick test_reference_digests;
        ] );
    ]
