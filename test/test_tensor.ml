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

(* --- flat offsets against the list-indexed oracle ------------------------ *)

(* Every operator against [Tensor_oracle], its list-indexed form, bit for bit
   on random shapes, strides, paddings, batch arms and broadcasts. Elements
   mix ordinary values and small integers with signed zeros, infinities and
   NaNs of random payload and sign, so a changed operand or summation order
   shows as a different bit pattern. A case the oracle rejects must raise
   the same exception. *)

module O = Tensor_oracle
module Gen = QCheck.Gen

let gen_value =
  let nan_payload =
    Gen.map2
      (fun negative payload ->
        Int64.float_of_bits
          (Int64.logor
             (if negative then Int64.min_int else 0L)
             (Int64.logor 0x7FF8000000000000L (Int64.of_int payload))))
      Gen.bool (Gen.int_bound 0xFFFFF)
  in
  Gen.frequency
    [
      (8, Gen.float_range (-2.) 2.);
      (2, Gen.map float_of_int (Gen.int_range (-3) 3));
      (1, Gen.oneofl [ 0.; -0.; infinity; neg_infinity ]);
      (1, nan_payload);
    ]

let gen_tensor shape =
  Gen.map (T.of_array shape) (Gen.array_repeat (List.fold_left ( * ) 1 shape) gen_value)

(* A shape of rank 1 to 4, extents 1 to 4. *)
let gen_ranked = Gen.(int_range 1 4 >>= fun rank -> list_repeat rank (int_range 1 4))
let show s = "[" ^ String.concat "," (List.map string_of_int s) ^ "]"
let shapes ts = String.concat " " (List.map (fun t -> show (T.shape t)) ts)

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let bits_equal (got : T.t) (want : O.t) =
  T.shape got = want.O.shape
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       (T.data got) want.O.data

(* A case: what it is, and the library's and the oracle's operator applied
   to the same inputs. *)
type case = { what : string; lib : unit -> T.t; oracle : unit -> O.t }

let agrees name gen =
  QCheck.Test.make ~name:("bit-equal to the oracle: " ^ name) ~count:150
    (QCheck.make ~print:(fun c -> c.what) gen)
    (fun c ->
      match (outcome c.lib, outcome c.oracle) with
      | Ok got, Ok want -> bits_equal got want
      | Error e, Error e' -> e = e'
      | Ok _, Error e -> QCheck.Test.fail_reportf "only the oracle raised %s" e
      | Error e, Ok _ -> QCheck.Test.fail_reportf "only the library raised %s" e)

let o = O.of_tensor

(* Unary and binary cases: [lib] and [oracle] take the inputs as generated. *)
let case1 what x lib oracle =
  { what = what ^ " " ^ shapes [ x ]; lib = (fun () -> lib x); oracle = (fun () -> oracle (o x)) }

let case2 what x y lib oracle =
  {
    what = what ^ " " ^ shapes [ x; y ];
    lib = (fun () -> lib x y);
    oracle = (fun () -> oracle (o x) (o y));
  }

let prop_init =
  (* The values and the order of the indices [f] sees, as one vector. *)
  let record init shape =
    let seen = ref [] in
    let t = init shape (fun idx ->
        seen := idx :: !seen;
        float_of_int (List.fold_left (fun a i -> (a * 7) + i) (List.length !seen) idx)) in
    Array.append t (Array.of_list (List.map float_of_int (List.concat !seen)))
  in
  agrees "init"
    (Gen.map
       (fun shape ->
         {
           what = show shape;
           lib = (fun () ->
             let v = record (fun s f -> T.data (T.init s f)) shape in
             T.of_array [ Array.length v ] v);
           oracle = (fun () ->
             let v = record (fun s f -> (O.init s f).O.data) shape in
             { O.shape = [ Array.length v ]; data = v });
         })
       gen_ranked)

let prop_get =
  agrees "get"
    Gen.(
      let* shape = gen_ranked in
      let* x = gen_tensor shape in
      let* idx = list_repeat (List.length shape) (int_range (-1) 4) in
      let+ idx = oneofl [ idx; idx; 0 :: idx ] in
      let at get t = [| get t idx |] in
      {
        what = show shape ^ " at " ^ show idx;
        lib = (fun () -> T.of_array [ 1 ] (at T.get x));
        oracle = (fun () -> { O.shape = [ 1 ]; data = at O.get (o x) });
      })

let prop_transpose =
  agrees "transpose"
    Gen.(
      let* shape = gen_ranked in
      let* x = gen_tensor shape in
      let* perm = shuffle_l (List.init (List.length shape) Fun.id) in
      let+ perm = frequency [ (9, return perm); (1, return (0 :: List.tl perm)) ] in
      case1 ("perm " ^ show perm) x (fun x -> T.transpose x perm) (fun x -> O.transpose x perm))

let prop_slice =
  agrees "slice"
    Gen.(
      let* shape = gen_ranked in
      let* x = gen_tensor shape in
      let* windows =
        flatten_l
          (List.map
             (fun d ->
               let* s = int_range 0 (d - 1) in
               let+ l = int_range 1 (d - s) in
               (s, l))
             shape)
      in
      (* One case in ten runs its last window one past the end. *)
      let+ over = frequency [ (9, return 0); (1, return 1) ] in
      let windows =
        List.mapi (fun i (s, l) -> if i = List.length windows - 1 then (s, l + over) else (s, l)) windows
      in
      let show_w = String.concat "," (List.map (fun (s, l) -> Printf.sprintf "%d+%d" s l) windows) in
      case1 ("windows " ^ show_w) x (fun x -> T.slice x windows) (fun x -> O.slice x windows))

let prop_concat =
  agrees "concat"
    Gen.(
      let* shape = gen_ranked in
      let rank = List.length shape in
      let* axis = int_range 0 (rank - 1) in
      let* extents = list_size (int_range 1 3) (int_range 1 3) in
      let* bad = frequency [ (9, return false); (1, return true) ] in
      let+ parts =
        flatten_l
          (List.mapi
             (fun k e ->
               gen_tensor
                 (List.mapi
                    (fun i d -> if i = axis then e else if bad && k = 1 then d + 1 else d)
                    shape))
             extents)
      in
      {
        what = Printf.sprintf "axis %d %s" axis (shapes parts);
        lib = (fun () -> T.concat parts ~axis);
        oracle = (fun () -> O.concat (List.map o parts) ~axis);
      })

(* Two shapes that broadcast to [shape] (the right-aligned suffix of it,
   some extents 1), or the same shape twice, or shapes that clash. *)
let gen_broadcast_pair =
  Gen.(
    let* shape = gen_ranked in
    let operand =
      let* drop = int_range 0 (List.length shape - 1) in
      let suffix = List.filteri (fun i _ -> i >= drop) shape in
      flatten_l (List.map (fun d -> map (fun one -> if one then 1 else d) (frequency [ (2, return true); (3, return false) ])) suffix)
    in
    let* s1 = operand and* s2 = operand in
    frequency
      [
        (6, return (s1, s2));
        (2, return (shape, shape));
        (1, return (shape, List.map (fun d -> d + 1) shape));
      ])

let prop_map2 =
  agrees "map2 (add, sub, mul, non-commutative)"
    Gen.(
      let* s1, s2 = gen_broadcast_pair in
      let* x = gen_tensor s1 and* y = gen_tensor s2 in
      let+ name, lib, oracle =
        oneofl
          [
            ("add", T.add, O.add);
            ("sub", T.sub, O.sub);
            ("mul", T.mul, O.mul);
            ("x - 2y", T.map2 (fun a b -> a -. (2. *. b)), O.map2 (fun a b -> a -. (2. *. b)));
          ]
      in
      case2 name x y lib oracle)

let prop_scale_shift =
  agrees "scale_shift"
    Gen.(
      let* shape = gen_ranked in
      let* x = gen_tensor shape in
      let* axis = int_range 0 (List.length shape) in
      let d = if axis < List.length shape then List.nth shape axis else 1 in
      let* len = frequency [ (9, return d); (1, return (d + 1)) ] in
      let* scale = gen_tensor [ len ] and* shift = gen_tensor [ d ] in
      return
        {
          what = Printf.sprintf "axis %d %s" axis (shapes [ x; scale; shift ]);
          lib = (fun () -> T.scale_shift x ~scale ~shift ~axis);
          oracle = (fun () -> O.scale_shift (o x) ~scale:(o scale) ~shift:(o shift) ~axis);
        })

let prop_reductions =
  agrees "sum, mean, max_, softmax"
    Gen.(
      let* shape = gen_ranked in
      let* x = gen_tensor shape in
      let* axis = int_range 0 (List.length shape) in
      let+ name, lib, oracle =
        oneofl
          [
            ("sum", T.sum, O.sum);
            ("mean", T.mean, O.mean);
            ("max_", T.max_, O.max_);
            ("softmax", T.softmax, O.softmax);
          ]
      in
      case1 (Printf.sprintf "%s axis %d" name axis) x (fun x -> lib x ~axis) (fun x -> oracle x ~axis))

let prop_layernorm =
  agrees "layernorm"
    Gen.(
      let* shape = gen_ranked in
      let* x = gen_tensor shape in
      let d = List.nth shape (List.length shape - 1) in
      let* gamma = gen_tensor [ d ] and* beta = gen_tensor [ d ] in
      let+ eps = oneofl [ 1e-5; 0.; 1. ] in
      {
        what = Printf.sprintf "eps %g %s" eps (shapes [ x ]);
        lib = (fun () -> T.layernorm x ~gamma ~beta ~eps);
        oracle = (fun () -> O.layernorm (o x) ~gamma:(o gamma) ~beta:(o beta) ~eps);
      })

let prop_matmul =
  agrees "matmul (every batch arm)"
    Gen.(
      let* m = int_range 1 4 and* k = int_range 1 5 and* n = int_range 1 4 in
      let* bs = int_range 1 3 in
      let* k' = frequency [ (9, return k); (1, return (k + 1)) ] in
      let* bs' = frequency [ (9, return bs); (1, return (bs + 1)) ] in
      let* sa, sb =
        oneofl
          [
            ([ m; k ], [ k'; n ]);
            ([ m; k ], [ bs; k'; n ]);
            ([ bs; m; k ], [ k'; n ]);
            ([ bs; m; k ], [ bs'; k'; n ]);
          ]
      in
      let+ a = gen_tensor sa and+ b = gen_tensor sb in
      case2 "" a b T.matmul O.matmul)

(* An NCHW input and a window: extents, stride and padding such that some
   windows hang over the border, some output extents are 0 and some
   paddings exceed the kernel. *)
let gen_window =
  Gen.(
    let* n = int_range 1 2 and* c = int_range 1 3 and* h = int_range 1 6 and* w = int_range 1 6 in
    let* kh = int_range 1 4 and* kw = int_range 1 4 in
    let* stride = int_range 1 3 and* pad_h = int_range 0 3 and* pad_w = int_range 0 3 in
    let+ x = gen_tensor [ n; c; h; w ] in
    (x, c, kh, kw, stride, pad_h, pad_w))

let show_window kh kw stride pad_h pad_w =
  Printf.sprintf "k %dx%d stride %d pad %d,%d" kh kw stride pad_h pad_w

let prop_conv2d =
  agrees "conv2d_hw and conv2d"
    Gen.(
      let* x, c, kh, kw, stride, pad_h, pad_w = gen_window in
      let* oc = int_range 1 3 in
      let* c' = frequency [ (9, return c); (1, return (c + 1)) ] in
      let* w = gen_tensor [ oc; c'; kh; kw ] in
      let+ square = bool in
      let what = (if square then "square " else "") ^ show_window kh kw stride pad_h pad_w in
      if square then
        case2 what x w (fun x w -> T.conv2d x w ~stride ~padding:pad_h)
          (fun x w -> O.conv2d x w ~stride ~padding:pad_h)
      else
        case2 what x w (fun x w -> T.conv2d_hw x w ~stride ~pad_h ~pad_w)
          (fun x w -> O.conv2d_hw x w ~stride ~pad_h ~pad_w))

let prop_depthwise =
  agrees "depthwise_conv2d"
    Gen.(
      let* x, c, kh, kw, stride, padding, _ = gen_window in
      let* mult = frequency [ (9, return 1); (1, return 2) ] in
      let+ w = gen_tensor [ c; mult; kh; kw ] in
      case2 (show_window kh kw stride padding padding) x w
        (fun x w -> T.depthwise_conv2d x w ~stride ~padding)
        (fun x w -> O.depthwise_conv2d x w ~stride ~padding))

let prop_pooling =
  agrees "maxpool2d, avgpool2d, global_avgpool"
    Gen.(
      let* x, _, kernel, _, stride, padding, _ = gen_window in
      let+ name, lib, oracle =
        oneofl
          [
            ("max", T.maxpool2d ~kernel ~stride ~padding, O.maxpool2d ~kernel ~stride ~padding);
            ("avg", T.avgpool2d ~kernel ~stride ~padding, O.avgpool2d ~kernel ~stride ~padding);
            ("global", T.global_avgpool, O.global_avgpool);
          ]
      in
      case1 (name ^ " " ^ show_window kernel kernel stride padding padding) x lib oracle)

let prop_im2col =
  agrees "im2col_hw and im2col"
    Gen.(
      let* x, _, kh, kw, stride, pad_h, pad_w = gen_window in
      let+ square = bool in
      if square then
        case1 ("square " ^ show_window kh kh stride pad_h pad_h) x
          (fun x -> T.im2col x ~kernel:kh ~stride ~padding:pad_h)
          (fun x -> O.im2col x ~kernel:kh ~stride ~padding:pad_h)
      else
        case1 (show_window kh kw stride pad_h pad_w) x
          (fun x -> T.im2col_hw x ~kh ~kw ~stride ~pad_h ~pad_w)
          (fun x -> O.im2col_hw x ~kh ~kw ~stride ~pad_h ~pad_w))

let oracle_props =
  [
    prop_init; prop_get; prop_transpose; prop_slice; prop_concat; prop_map2;
    prop_scale_shift; prop_reductions; prop_layernorm; prop_matmul; prop_conv2d;
    prop_depthwise; prop_pooling; prop_im2col;
  ]

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
      ("flat offsets", List.map QCheck_alcotest.to_alcotest oracle_props);
    ]
