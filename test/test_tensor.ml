(* Tests for the CPU reference tensor library — the oracle everything else is
   validated against, so it gets hand-computed cases plus property tests. *)

module T = Hidet_tensor.Tensor

let close = Alcotest.(check (float 1e-5))

let check_tensor name expected actual =
  if not (T.allclose ~rtol:1e-5 ~atol:1e-6 expected actual) then
    Alcotest.failf "%s: max |diff| = %g" name (T.max_abs_diff expected actual)

(* --- construction and access --------------------------------------------- *)

let test_create_get_set () =
  let t = T.create [ 2; 3 ] in
  T.set t [ 1; 2 ] 5.;
  close "get" 5. (T.get t [ 1; 2 ]);
  close "other zero" 0. (T.get t [ 0; 0 ]);
  Alcotest.(check int) "numel" 6 (T.numel t)

let test_init_row_major () =
  let t = T.init [ 2; 3 ] (fun idx -> match idx with [ i; j ] -> float_of_int ((10 * i) + j) | _ -> 0.) in
  close "flat order" 2. (T.flat_get t 2);
  close "row 1" 12. (T.flat_get t 5)

let test_bad_shapes () =
  Alcotest.(check bool) "empty" true
    (try ignore (T.create []); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative" true
    (try ignore (T.create [ 2; -1 ]); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "oob" true
    (try ignore (T.get (T.create [ 2 ]) [ 5 ]); false with Invalid_argument _ -> true)

let test_rand_deterministic () =
  let a = T.rand ~seed:7 [ 4; 4 ] and b = T.rand ~seed:7 [ 4; 4 ] in
  Alcotest.(check bool) "same seed same data" true (T.allclose a b);
  let c = T.rand ~seed:8 [ 4; 4 ] in
  Alcotest.(check bool) "different seed differs" false (T.allclose a c)

(* --- shape ops ------------------------------------------------------------ *)

let test_reshape () =
  let t = T.init [ 2; 6 ] (fun _ -> 1.) in
  Alcotest.(check (list int)) "explicit" [ 3; 4 ] (T.shape (T.reshape t [ 3; 4 ]));
  Alcotest.(check (list int)) "wildcard" [ 4; 3 ] (T.shape (T.reshape t [ 4; -1 ]));
  Alcotest.(check bool) "bad" true
    (try ignore (T.reshape t [ 5; 2 ]); false with Invalid_argument _ -> true)

let test_transpose_involution () =
  let t = T.rand ~seed:3 [ 3; 4; 5 ] in
  let tt = T.transpose (T.transpose t [ 2; 0; 1 ]) [ 1; 2; 0 ] in
  check_tensor "transpose round trip" t tt

let test_transpose_2d () =
  let t = T.init [ 2; 3 ] (fun idx -> match idx with [ i; j ] -> float_of_int ((10 * i) + j) | _ -> 0.) in
  let tt = T.transpose t [ 1; 0 ] in
  Alcotest.(check (list int)) "shape" [ 3; 2 ] (T.shape tt);
  close "element" 12. (T.get tt [ 2; 1 ])

let test_slice_concat_roundtrip () =
  let t = T.rand ~seed:11 [ 2; 6 ] in
  let left = T.slice t [ (0, 2); (0, 3) ] and right = T.slice t [ (0, 2); (3, 3) ] in
  check_tensor "concat(slice)" t (T.concat [ left; right ] ~axis:1)

(* --- elementwise / broadcast ---------------------------------------------- *)

let test_broadcast_add () =
  let a = T.init [ 2; 3 ] (fun idx -> match idx with [ i; _ ] -> float_of_int i | _ -> 0.) in
  let b = T.of_array [ 3 ] [| 10.; 20.; 30. |] in
  let c = T.add a b in
  close "broadcast" 21. (T.get c [ 1; 1 ])

let test_relu_gelu () =
  let t = T.of_array [ 4 ] [| -2.; -0.5; 0.5; 2. |] in
  let r = T.relu t in
  close "relu neg" 0. (T.flat_get r 0);
  close "relu pos" 2. (T.flat_get r 3);
  let g = T.gelu t in
  Alcotest.(check (float 1e-3)) "gelu(2)" 1.9545 (T.flat_get g 3);
  Alcotest.(check (float 1e-3)) "gelu(-2)" (-0.0455) (T.flat_get g 0)

let test_scale_shift () =
  (* Inference batch norm: y = x * scale + shift along the channel axis. *)
  let x = T.full [ 1; 2; 2; 2 ] 3. in
  let scale = T.of_array [ 2 ] [| 2.; 10. |] in
  let shift = T.of_array [ 2 ] [| 1.; -1. |] in
  let y = T.scale_shift x ~scale ~shift ~axis:1 in
  close "channel 0" 7. (T.get y [ 0; 0; 1; 1 ]);
  close "channel 1" 29. (T.get y [ 0; 1; 0; 0 ])

(* --- reductions ------------------------------------------------------------ *)

let test_sum_mean_max () =
  let t = T.of_array [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  close "sum axis1" 6. (T.get (T.sum t ~axis:1) [ 0; 0 ]);
  close "sum axis0" 5. (T.get (T.sum t ~axis:0) [ 0; 0 ]);
  close "mean" 5. (T.get (T.mean t ~axis:1) [ 1; 0 ]);
  close "max" 6. (T.get (T.max_ t ~axis:1) [ 1; 0 ])

let test_softmax_sums_to_one () =
  let t = T.rand ~seed:5 [ 3; 7 ] in
  let s = T.softmax t ~axis:1 in
  let sums = T.sum s ~axis:1 in
  Array.iter (fun x -> close "sum=1" 1. x) (T.data sums)

let test_softmax_shift_invariance () =
  let t = T.rand ~seed:9 [ 2; 5 ] in
  let shifted = T.map (fun x -> x +. 100.) t in
  check_tensor "shift invariant" (T.softmax t ~axis:1) (T.softmax shifted ~axis:1)

let test_layernorm () =
  let t = T.of_array [ 1; 4 ] [| 1.; 2.; 3.; 4. |] in
  let gamma = T.full [ 4 ] 1. and beta = T.create [ 4 ] in
  let n = T.layernorm t ~gamma ~beta ~eps:1e-5 in
  close "mean ~ 0" 0. (T.get (T.mean n ~axis:1) [ 0; 0 ]);
  Alcotest.(check (float 1e-2)) "normalized first" (-1.342) (T.get n [ 0; 0 ])

(* --- matmul ----------------------------------------------------------------- *)

let test_matmul_hand () =
  let a = T.of_array [ 2; 2 ] [| 1.; 2.; 3.; 4. |] in
  let b = T.of_array [ 2; 2 ] [| 5.; 6.; 7.; 8. |] in
  let c = T.matmul a b in
  check_tensor "2x2" (T.of_array [ 2; 2 ] [| 19.; 22.; 43.; 50. |]) c

let test_matmul_identity () =
  let n = 8 in
  let a = T.rand ~seed:2 [ n; n ] in
  let id = T.init [ n; n ] (fun idx -> match idx with [ i; j ] -> if i = j then 1. else 0. | _ -> 0.) in
  check_tensor "A*I = A" a (T.matmul a id);
  check_tensor "I*A = A" a (T.matmul id a)

let test_matmul_batched () =
  let a = T.rand ~seed:4 [ 3; 4; 5 ] and b = T.rand ~seed:6 [ 5; 6 ] in
  let c = T.matmul a b in
  Alcotest.(check (list int)) "shape" [ 3; 4; 6 ] (T.shape c);
  (* Batch 1 equals the unbatched product of that slice. *)
  let a1 = T.reshape (T.slice a [ (1, 1); (0, 4); (0, 5) ]) [ 4; 5 ] in
  let c1 = T.reshape (T.slice c [ (1, 1); (0, 4); (0, 6) ]) [ 4; 6 ] in
  check_tensor "batch slice" (T.matmul a1 b) c1

let prop_matmul_linearity =
  QCheck.Test.make ~name:"matmul is linear in first argument" ~count:50
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let a1 = T.rand ~seed:(s1 + 1) [ 3; 4 ] and a2 = T.rand ~seed:(s2 + 100) [ 3; 4 ] in
      let b = T.rand ~seed:7 [ 4; 2 ] in
      T.allclose ~rtol:1e-4 ~atol:1e-5
        (T.matmul (T.add a1 a2) b)
        (T.add (T.matmul a1 b) (T.matmul a2 b)))

(* --- convolution -------------------------------------------------------------- *)

let test_conv2d_delta_kernel () =
  (* Convolving with a centered delta kernel reproduces the input. *)
  let x = T.rand ~seed:1 [ 1; 2; 5; 5 ] in
  let w =
    T.init [ 2; 2; 3; 3 ] (fun idx ->
        match idx with
        | [ o; i; kh; kw ] -> if o = i && kh = 1 && kw = 1 then 1. else 0.
        | _ -> 0.)
  in
  let y = T.conv2d x w ~stride:1 ~padding:1 in
  check_tensor "delta conv" x y

let test_conv2d_hand () =
  (* 1x1x3x3 input, 1x1x2x2 all-ones kernel, stride 1, no padding. *)
  let x = T.of_array [ 1; 1; 3; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. |] in
  let w = T.full [ 1; 1; 2; 2 ] 1. in
  let y = T.conv2d x w ~stride:1 ~padding:0 in
  check_tensor "2x2 sums" (T.of_array [ 1; 1; 2; 2 ] [| 12.; 16.; 24.; 28. |]) y

let test_conv2d_stride_padding_shape () =
  let x = T.rand ~seed:3 [ 2; 3; 28; 28 ] in
  let w = T.rand ~seed:4 [ 8; 3; 3; 3 ] in
  Alcotest.(check (list int)) "stride 2 pad 1" [ 2; 8; 14; 14 ]
    (T.shape (T.conv2d x w ~stride:2 ~padding:1))

let test_im2col_matches_conv () =
  (* The implicit-GEMM identity used by the paper (section 5.2):
     conv2d(x, w) = reshape(matmul(w_matrix, im2col(x))). *)
  let n, c, h, wd = (2, 3, 8, 8) in
  let oc, k, stride, padding = (4, 3, 2, 1) in
  let x = T.rand ~seed:5 [ n; c; h; wd ] in
  let w = T.rand ~seed:6 [ oc; c; k; k ] in
  let direct = T.conv2d x w ~stride ~padding in
  let oh = ((h + (2 * padding) - k) / stride) + 1 in
  let ow = ((wd + (2 * padding) - k) / stride) + 1 in
  let cols = T.im2col x ~kernel:k ~stride ~padding in
  let w_mat = T.reshape w [ oc; c * k * k ] in
  let per_batch =
    List.init n (fun b ->
        let col_b = T.reshape (T.slice cols [ (b, 1); (0, c * k * k); (0, oh * ow) ]) [ c * k * k; oh * ow ] in
        T.reshape (T.matmul w_mat col_b) [ 1; oc; oh; ow ])
  in
  check_tensor "im2col gemm = direct conv" direct (T.concat per_batch ~axis:0)

let test_depthwise_conv () =
  (* Depthwise with an identity-delta kernel preserves each channel. *)
  let x = T.rand ~seed:8 [ 1; 3; 6; 6 ] in
  let w =
    T.init [ 3; 1; 3; 3 ] (fun idx ->
        match idx with [ _; _; kh; kw ] -> if kh = 1 && kw = 1 then 1. else 0. | _ -> 0.)
  in
  check_tensor "depthwise delta" x (T.depthwise_conv2d x w ~stride:1 ~padding:1)

let test_pooling () =
  let x = T.of_array [ 1; 1; 4; 4 ] (Array.init 16 float_of_int) in
  let mp = T.maxpool2d x ~kernel:2 ~stride:2 ~padding:0 in
  check_tensor "maxpool" (T.of_array [ 1; 1; 2; 2 ] [| 5.; 7.; 13.; 15. |]) mp;
  let ap = T.avgpool2d x ~kernel:2 ~stride:2 ~padding:0 in
  check_tensor "avgpool" (T.of_array [ 1; 1; 2; 2 ] [| 2.5; 4.5; 10.5; 12.5 |]) ap;
  let gp = T.global_avgpool x in
  close "global avg" 7.5 (T.get gp [ 0; 0; 0; 0 ])

let test_allclose_tolerances () =
  let a = T.full [ 3 ] 1. in
  let b = T.full [ 3 ] 1.000001 in
  Alcotest.(check bool) "close" true (T.allclose a b);
  let c = T.full [ 3 ] 1.1 in
  Alcotest.(check bool) "not close" false (T.allclose a c)

let () =
  Alcotest.run "hidet_tensor"
    [
      ( "basic",
        [
          Alcotest.test_case "create/get/set" `Quick test_create_get_set;
          Alcotest.test_case "row-major init" `Quick test_init_row_major;
          Alcotest.test_case "bad shapes" `Quick test_bad_shapes;
          Alcotest.test_case "deterministic rand" `Quick test_rand_deterministic;
          Alcotest.test_case "allclose" `Quick test_allclose_tolerances;
        ] );
      ( "shape",
        [
          Alcotest.test_case "reshape" `Quick test_reshape;
          Alcotest.test_case "transpose involution" `Quick test_transpose_involution;
          Alcotest.test_case "transpose 2d" `Quick test_transpose_2d;
          Alcotest.test_case "slice/concat" `Quick test_slice_concat_roundtrip;
        ] );
      ( "elementwise",
        [
          Alcotest.test_case "broadcast add" `Quick test_broadcast_add;
          Alcotest.test_case "relu/gelu" `Quick test_relu_gelu;
          Alcotest.test_case "scale-shift (bn)" `Quick test_scale_shift;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "sum/mean/max" `Quick test_sum_mean_max;
          Alcotest.test_case "softmax sums to 1" `Quick test_softmax_sums_to_one;
          Alcotest.test_case "softmax shift-invariant" `Quick test_softmax_shift_invariance;
          Alcotest.test_case "layernorm" `Quick test_layernorm;
        ] );
      ( "matmul",
        [
          Alcotest.test_case "hand 2x2" `Quick test_matmul_hand;
          Alcotest.test_case "identity" `Quick test_matmul_identity;
          Alcotest.test_case "batched" `Quick test_matmul_batched;
          QCheck_alcotest.to_alcotest prop_matmul_linearity;
        ] );
      ( "conv",
        [
          Alcotest.test_case "delta kernel" `Quick test_conv2d_delta_kernel;
          Alcotest.test_case "hand conv" `Quick test_conv2d_hand;
          Alcotest.test_case "stride/pad shape" `Quick test_conv2d_stride_padding_shape;
          Alcotest.test_case "im2col = conv" `Quick test_im2col_matches_conv;
          Alcotest.test_case "depthwise" `Quick test_depthwise_conv;
          Alcotest.test_case "pooling" `Quick test_pooling;
        ] );
    ]
