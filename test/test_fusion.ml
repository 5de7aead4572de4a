(* Tests for post-scheduling fusion: prologue inlining, epilogue store
   rewriting (index bijections and value transforms), error conditions, and
   the property that arbitrary chains of bijective epilogues agree with the
   unfused pipeline. *)

module Fuse = Hidet_fusion.Fuse
module MT = Hidet_sched.Matmul_template
module RB = Hidet_sched.Rule_based
module C = Hidet_sched.Compiled
module Op = Hidet_graph.Op
module Def = Hidet_compute.Def
module T = Hidet_tensor.Tensor

let base = { MT.default_config with MT.block_m = 32; block_n = 32; warp_m = 16; warp_n = 16 }
let check name expected actual =
  if not (T.allclose ~rtol:1e-3 ~atol:1e-4 expected actual) then
    Alcotest.failf "%s: max diff %g" name (T.max_abs_diff expected actual)

(* A small matmul anchor: C[1,m,n] = A[1,m,k] * B[k,n]. *)
let anchor ~m ~n ~k = MT.compile ~m ~n ~k base

let test_epilogue_scale () =
  let m, n, k = (20, 24, 16) in
  let a = T.rand ~seed:1 [ 1; m; k ] and b = T.rand ~seed:2 [ k; n ] in
  let plain = T.matmul a b in
  let d = Op.to_def (Op.Unary (Op.Scale_by 3.)) [ [ 1; m; n ] ] in
  let fused = Fuse.fuse_epilogue (anchor ~m ~n ~k) d in
  C.verify fused;
  check "x3" (T.map (fun v -> v *. 3.) plain) (C.run fused [ a; b ])

let test_epilogue_relu_chain () =
  let m, n, k = (20, 24, 16) in
  let a = T.rand ~seed:3 [ 1; m; k ] and b = T.rand ~seed:4 [ k; n ] in
  let plain = T.matmul a b in
  let fused =
    Fuse.fuse_epilogue
      (Fuse.fuse_epilogue (anchor ~m ~n ~k)
         (Op.to_def (Op.Unary (Op.Scale_by (-1.))) [ [ 1; m; n ] ]))
      (Op.to_def (Op.Unary Op.Relu) [ [ 1; m; n ] ])
  in
  check "relu(-x)" (T.relu (T.map (fun v -> -.v) plain)) (C.run fused [ a; b ])

let test_epilogue_reshape_transpose () =
  let m, n, k = (12, 20, 8) in
  let a = T.rand ~seed:5 [ 1; m; k ] and b = T.rand ~seed:6 [ k; n ] in
  let plain = T.reshape (T.matmul a b) [ m; n ] in
  (* reshape [1,m,n] -> [m,n], then transpose -> [n,m]. *)
  let fused =
    Fuse.fuse_epilogue
      (Fuse.fuse_epilogue (anchor ~m ~n ~k)
         (Op.to_def (Op.Reshape [ m; n ]) [ [ 1; m; n ] ]))
      (Op.to_def (Op.Transpose [ 1; 0 ]) [ [ m; n ] ])
  in
  let got = C.run fused [ a; b ] in
  Alcotest.(check (list int)) "shape" [ n; m ] (T.shape got);
  check "transposed" (T.transpose plain [ 1; 0 ]) got

let test_epilogue_residual_add () =
  (* Epilogue with a second input: out = matmul + residual. *)
  let m, n, k = (16, 16, 12) in
  let a = T.rand ~seed:7 [ 1; m; k ] and b = T.rand ~seed:8 [ k; n ] in
  let res = T.rand ~seed:9 [ 1; m; n ] in
  let d = Op.to_def (Op.Binary Op.Add) [ [ 1; m; n ]; [ 1; m; n ] ] in
  let fused = Fuse.fuse_epilogue (anchor ~m ~n ~k) d in
  Alcotest.(check int) "extra input appended" 3 (List.length fused.C.ins);
  check "residual" (T.add (T.matmul a b) res) (C.run fused [ a; b; res ])

let test_prologue_scale () =
  (* Scale input A before the matmul: matmul(2a, b) = 2 matmul(a, b). *)
  let m, n, k = (16, 20, 12) in
  let a = T.rand ~seed:10 [ 1; m; k ] and b = T.rand ~seed:11 [ k; n ] in
  let d = Op.to_def (Op.Unary (Op.Scale_by 2.)) [ [ 1; m; k ] ] in
  let fused = Fuse.fuse_prologue (anchor ~m ~n ~k) ~input_index:0 d in
  C.verify fused;
  check "2ab" (T.map (fun v -> v *. 2.) (T.matmul a b)) (C.run fused [ a; b ])

let test_prologue_transpose () =
  (* B provided transposed, untransposed by an inlined prologue. *)
  let m, n, k = (12, 16, 8) in
  let a = T.rand ~seed:12 [ 1; m; k ] and bt = T.rand ~seed:13 [ n; k ] in
  let d = Op.to_def (Op.Transpose [ 1; 0 ]) [ [ n; k ] ] in
  let fused = Fuse.fuse_prologue (anchor ~m ~n ~k) ~input_index:1 d in
  check "a * b^T" (T.matmul a (T.transpose bt [ 1; 0 ])) (C.run fused [ a; bt ])

let test_prologue_chained_with_epilogue () =
  (* scale prologue on A + relu epilogue together. *)
  let m, n, k = (16, 16, 8) in
  let a = T.rand ~seed:14 [ 1; m; k ] and b = T.rand ~seed:15 [ k; n ] in
  let fused =
    Fuse.fuse_epilogue
      (Fuse.fuse_prologue (anchor ~m ~n ~k) ~input_index:0
         (Op.to_def (Op.Unary (Op.Scale_by (-2.))) [ [ 1; m; k ] ]))
      (Op.to_def (Op.Unary Op.Relu) [ [ 1; m; n ] ])
  in
  check "relu(-2ab)"
    (T.relu (T.map (fun v -> v *. -2.) (T.matmul a b)))
    (C.run fused [ a; b ])

let test_prologue_on_rule_based_anchor () =
  (* Fusion applies to any scheduled Compiled, not just templates. *)
  let shape = [ 4; 10 ] in
  let anchor = RB.schedule (Op.to_def (Op.Unary Op.Relu) [ shape ]) in
  let d = Op.to_def (Op.Unary (Op.Scale_by (-1.))) [ shape ] in
  let fused = Fuse.fuse_prologue anchor ~input_index:0 d in
  let x = T.rand ~seed:16 shape in
  check "relu(-x)" (T.relu (T.map (fun v -> -.v) x)) (C.run fused [ x ])

let test_fusion_error_cases () =
  let m, n, k = (16, 16, 8) in
  let reduction_def =
    Def.create ~name:"sum" ~in_shapes:[ [ 1; m; k ] ] ~out_shape:[ 1; m; k ]
      ~reduce:([ 2 ], Def.Sum)
      Def.(input 0 [ axis 0; axis 1; axis 2 ])
  in
  Alcotest.(check bool) "non-injective prologue rejected" true
    (try
       ignore (Fuse.fuse_prologue (anchor ~m ~n ~k) ~input_index:0 reduction_def);
       false
     with Invalid_argument _ -> true);
  let wrong_shape = Op.to_def (Op.Unary Op.Relu) [ [ 2; m; k ] ] in
  Alcotest.(check bool) "shape mismatch rejected" true
    (try
       ignore (Fuse.fuse_prologue (anchor ~m ~n ~k) ~input_index:0 wrong_shape);
       false
     with Invalid_argument _ -> true);
  let no_bijection =
    Def.create ~name:"nb" ~in_shapes:[ [ 1; m; n ] ] ~out_shape:[ 1; m; n ]
      Def.(input 0 [ axis 0; axis 1; axis 2 ])
  in
  Alcotest.(check bool) "epilogue without bijection rejected" true
    (try
       ignore (Fuse.fuse_epilogue (anchor ~m ~n ~k) no_bijection);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad input index rejected" true
    (try
       ignore
         (Fuse.fuse_prologue (anchor ~m ~n ~k) ~input_index:5
            (Op.to_def (Op.Unary Op.Relu) [ [ 1; m; k ] ]));
       false
     with Invalid_argument _ -> true)

let test_fused_kernel_count () =
  (* Fusion never adds kernels: conv-bn-relu over a split-k anchor still
     launches exactly the anchor's kernels. *)
  let cfg = { base with MT.split_k = 2 } in
  let c = MT.compile ~m:16 ~n:16 ~k:64 cfg in
  let fused =
    Fuse.fuse_epilogue c (Op.to_def (Op.Unary Op.Relu) [ [ 1; 16; 16 ] ])
  in
  Alcotest.(check int) "kernel count unchanged" 2 (List.length fused.C.kernels);
  let a = T.rand ~seed:17 [ 1; 16; 64 ] and b = T.rand ~seed:18 [ 64; 16 ] in
  check "split-k epilogue lands on the reduce kernel"
    (T.relu (T.matmul a b))
    (C.run fused [ a; b ])

(* Property: a random chain of bijective epilogues equals the unfused
   pipeline applied to the plain matmul result. *)
let arb_epilogue_chain =
  let open QCheck in
  let gen_op =
    Gen.oneofl [ `Scale 2.; `Scale (-0.5); `Relu; `Transpose; `Reshape ]
  in
  make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | `Scale f -> Printf.sprintf "scale %g" f
             | `Relu -> "relu"
             | `Transpose -> "transpose"
             | `Reshape -> "reshape")
           ops))
    Gen.(list_size (int_range 0 4) gen_op)

let prop_epilogue_chain =
  QCheck.Test.make ~name:"random epilogue chains = unfused pipeline" ~count:40
    arb_epilogue_chain (fun ops ->
      let m, n, k = (8, 12, 8) in
      let a = T.rand ~seed:19 [ 1; m; k ] and b = T.rand ~seed:20 [ k; n ] in
      let apply_ref t = function
        | `Scale f -> T.map (fun v -> v *. f) t
        | `Relu -> T.relu t
        | `Transpose ->
          let rank = List.length (T.shape t) in
          T.transpose t (List.rev (List.init rank Fun.id))
        | `Reshape -> T.reshape t [ T.numel t ]
      in
      let apply_fuse c op =
        let shape = c.C.out.Hidet_ir.Buffer.dims in
        let def =
          match op with
          | `Scale f -> Op.to_def (Op.Unary (Op.Scale_by f)) [ shape ]
          | `Relu -> Op.to_def (Op.Unary Op.Relu) [ shape ]
          | `Transpose ->
            let rank = List.length shape in
            Op.to_def (Op.Transpose (List.rev (List.init rank Fun.id))) [ shape ]
          | `Reshape ->
            Op.to_def (Op.Reshape [ List.fold_left ( * ) 1 shape ]) [ shape ]
        in
        Fuse.fuse_epilogue c def
      in
      let expect = List.fold_left apply_ref (T.matmul a b) ops in
      let fused = List.fold_left apply_fuse (anchor ~m ~n ~k) ops in
      let got = C.run fused [ a; b ] in
      T.allclose ~rtol:1e-3 ~atol:1e-4 expect (T.reshape got (T.shape expect)))

(* --- memoized compiles ------------------------------------------------------- *)

module G = Hidet_graph.Graph
module GC = Hidet_runtime.Group_compiler
module Plan = Hidet_runtime.Plan
module HE = Hidet.Hidet_engine
module Metrics = Hidet_obs.Metrics

let dev = Hidet_gpu.Device.rtx3090
let counter = Metrics.counter

let fusion_counters =
  [
    "fusion.groups";
    "fusion.fused_prologues";
    "fusion.fused_epilogues";
    "fusion.fallback_kernels";
    "plan.kernels_emitted";
  ]

(* [f ()] and how far it moved each of [names]. *)
let with_deltas names f =
  let before = List.map (fun n -> Metrics.value (counter n)) names in
  let r = f () in
  (r, List.map2 (fun n b -> (n, Metrics.value (counter n) - b)) names before)

let bits_equal a b =
  T.shape a = T.shape b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (T.data a) (T.data b)

(* Every zoo and tiny model, under three option sets: the memoized compile
   and the oracle that rebuilds every kernel, fusion and estimate give the
   same steps, the same CUDA per step, the same fusion counter deltas and a
   bit-identical latency; a tiny plan's outputs are bit-equal on both
   simulator backends. *)
let test_memo_matches_oracle () =
  let variants =
    [
      ("default", HE.default_options);
      ("fuse=false", { HE.default_options with HE.fuse = false });
      ("deterministic_reduce", { HE.default_options with HE.deterministic_reduce = true });
    ]
  in
  let models =
    List.map (fun m -> (m, false)) Hidet_models.Models.all
    @ List.map (fun m -> (m, true)) Hidet_models.Models.tiny_all
  in
  Hidet_sched.Schedule_cache.clear ();
  List.iter
    (fun ((name, mk), tiny) ->
      let g = mk () in
      List.iter
        (fun (variant, options) ->
          let what = Printf.sprintf "%s, %s" name variant in
          let (plan, _), memo_deltas =
            with_deltas
              ("fusion.group_reuses" :: fusion_counters)
              (fun () -> HE.compile_plan ~options dev g)
          in
          let oracle, oracle_deltas =
            with_deltas
              ("fusion.group_reuses" :: "schedule_cache.instance_reuses" :: fusion_counters)
              (fun () -> Oracle.compile_plan ~options dev g)
          in
          (match oracle_deltas with
          | (_, 0) :: (_, 0) :: oracle_fusion ->
            Alcotest.(check (list (pair string int)))
              (what ^ ": fusion counters") (List.tl memo_deltas) oracle_fusion
          | _ -> Alcotest.failf "%s: the oracle reused a memo" what);
          if (not tiny) && options.HE.fuse then
            Alcotest.(check bool)
              (what ^ ": repeated groups are reused") true
              (List.assoc "fusion.group_reuses" memo_deltas > 0);
          Alcotest.(check int) (what ^ ": steps")
            (List.length oracle.Plan.steps) (List.length plan.Plan.steps);
          List.iteri
            (fun i ((s : Plan.step), (o : Plan.step)) ->
              let at = Printf.sprintf "%s: step %d" what i in
              Alcotest.(check (list int)) (at ^ " args") o.Plan.args s.Plan.args;
              Alcotest.(check int) (at ^ " out_node") o.Plan.out_node s.Plan.out_node;
              Alcotest.(check string) (at ^ " CUDA")
                (C.cuda_source o.Plan.compiled) (C.cuda_source s.Plan.compiled))
            (List.combine plan.Plan.steps oracle.Plan.steps);
          let bits l = Int64.bits_of_float l in
          Alcotest.(check int64) (what ^ ": latency")
            (bits (Oracle.plan_latency dev oracle)) (bits (Plan.latency dev plan));
          if tiny then
            let inputs =
              List.mapi (fun i id -> T.rand ~seed:(31 + i) (G.node_shape g id)) (G.input_ids g)
            in
            List.iter
              (fun backend ->
                let run p = Plan.run ~backend p (List.combine (G.input_ids g) inputs) in
                Alcotest.(check bool) (what ^ ": outputs bit-equal") true
                  (List.for_all2 bits_equal (run oracle) (run plan)))
              [ `Closure; `Native ])
        variants)
    models;
  Hidet_sched.Schedule_cache.clear ()

(* A chain of three identical matmul+relu layers and one of another width:
   4 groups and 2 signatures, so the memo builds 2 and reuses 2, and every
   reused group still reports its fused epilogue. *)
let test_group_memo_counts () =
  let g = G.create () in
  let x = G.input g [ 4; 16 ] in
  let layer x n = G.relu g (G.matmul g x (G.constant_rand g ~seed:n [ 16; n ])) in
  let y = layer (layer (layer x 16) 16) 16 in
  G.set_outputs g [ layer y 8 ];
  let anchors = ref 0 in
  (* One kernel per anchor shape, shared like the schedule cache's. *)
  let kernels = Hashtbl.create 4 in
  let cfg =
    {
      GC.schedule_anchor =
        (fun g (n : G.node) ->
          incr anchors;
          let shapes = List.map (G.node_shape g) n.G.inputs in
          match Hashtbl.find_opt kernels shapes with
          | Some c -> c
          | None ->
            let c = RB.schedule (Op.to_def n.G.op shapes) in
            Hashtbl.add kernels shapes c;
            c);
      may_fuse_prologue = (fun _ -> true);
      may_fuse_epilogue = (fun _ -> true);
    }
  in
  let plan, deltas =
    with_deltas
      [ "fusion.groups"; "fusion.group_reuses"; "fusion.fused_epilogues" ]
      (fun () -> GC.compile_graph cfg g)
  in
  let calls = List.assoc "fusion.groups" deltas in
  let reuses = List.assoc "fusion.group_reuses" deltas in
  let builds = Hashtbl.length kernels in
  Alcotest.(check int) "one group per anchor call" !anchors calls;
  Alcotest.(check int) "reuses + builds = calls" calls (reuses + builds);
  Alcotest.(check int) "reused" 2 reuses;
  Alcotest.(check int) "every group fused its relu" 4
    (List.assoc "fusion.fused_epilogues" deltas);
  let xv = T.rand ~seed:5 [ 4; 16 ] in
  check "plan = reference" (Hidet_graph.Reference.run1 g [ xv ]) (Plan.run1 plan [ xv ]);
  (* Equal signatures but a new kernel from every call: nothing is reused,
     and each step keeps a kernel of its own. *)
  let cfg =
    {
      cfg with
      GC.schedule_anchor =
        (fun g (n : G.node) ->
          RB.schedule (Op.to_def n.G.op (List.map (G.node_shape g) n.G.inputs)));
    }
  in
  let plan, deltas = with_deltas [ "fusion.group_reuses" ] (fun () -> GC.compile_graph cfg g) in
  Alcotest.(check int) "no reuse across distinct kernels" 0
    (List.assoc "fusion.group_reuses" deltas);
  let kernels = List.map (fun (s : Plan.step) -> s.Plan.compiled) plan.Plan.steps in
  Alcotest.(check bool) "each step its own kernel" true
    (List.for_all (fun c -> List.length (List.filter (( == ) c) kernels) = 1) kernels)

let () =
  Alcotest.run "hidet_fusion"
    [
      ( "epilogue",
        [
          Alcotest.test_case "scale" `Quick test_epilogue_scale;
          Alcotest.test_case "relu chain" `Quick test_epilogue_relu_chain;
          Alcotest.test_case "reshape+transpose" `Quick test_epilogue_reshape_transpose;
          Alcotest.test_case "residual add" `Quick test_epilogue_residual_add;
          Alcotest.test_case "split-k reduce kernel" `Quick test_fused_kernel_count;
          QCheck_alcotest.to_alcotest prop_epilogue_chain;
        ] );
      ( "prologue",
        [
          Alcotest.test_case "scale" `Quick test_prologue_scale;
          Alcotest.test_case "transpose" `Quick test_prologue_transpose;
          Alcotest.test_case "with epilogue" `Quick test_prologue_chained_with_epilogue;
          Alcotest.test_case "rule-based anchor" `Quick test_prologue_on_rule_based_anchor;
        ] );
      ("errors", [ Alcotest.test_case "rejections" `Quick test_fusion_error_cases ]);
      ( "memoized compile",
        [
          Alcotest.test_case "group memo counts" `Quick test_group_memo_counts;
          Alcotest.test_case "equals the un-memoized oracle" `Slow
            test_memo_matches_oracle;
        ] );
    ]
