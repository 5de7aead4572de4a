(* Tests for the graph layer: operator shape inference (positive and
   negative), fusion classification, graph construction, reference
   execution, and the optimization passes (constant folding, dead code
   elimination, implicit-GEMM conv lowering, fusion partitioning). *)

module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module Passes = Hidet_graph.Passes
module Ref = Hidet_graph.Reference
module T = Hidet_tensor.Tensor

let shape = Alcotest.(list int)

(* --- shape inference ------------------------------------------------------- *)

let infer_shape_cases =
  let cases =
    [
      (Op.Matmul, [ [ 3; 4 ]; [ 4; 5 ] ], [ 3; 5 ]);
      (Op.Matmul, [ [ 2; 3; 4 ]; [ 4; 5 ] ], [ 2; 3; 5 ]);
      (Op.Matmul, [ [ 2; 3; 4 ]; [ 2; 4; 5 ] ], [ 2; 3; 5 ]);
      (Op.Matmul, [ [ 3; 4 ]; [ 2; 4; 5 ] ], [ 2; 3; 5 ]);
      ( Op.Conv2d { stride = 2; pad_h = 1; pad_w = 1 },
        [ [ 1; 3; 28; 28 ]; [ 8; 3; 3; 3 ] ],
        [ 1; 8; 14; 14 ] );
      ( Op.Conv2d { stride = 1; pad_h = 0; pad_w = 3 },
        [ [ 1; 8; 17; 17 ]; [ 16; 8; 1; 7 ] ],
        [ 1; 16; 17; 17 ] );
      ( Op.Depthwise_conv2d { stride = 2; padding = 1 },
        [ [ 1; 8; 14; 14 ]; [ 8; 1; 3; 3 ] ],
        [ 1; 8; 7; 7 ] );
      ( Op.Pool2d { kind = Op.Max_pool; kernel = 3; stride = 2; padding = 1 },
        [ [ 1; 4; 56; 56 ] ],
        [ 1; 4; 28; 28 ] );
      (Op.Global_avg_pool, [ [ 2; 16; 7; 7 ] ], [ 2; 16; 1; 1 ]);
      (Op.Bias_add, [ [ 2; 5; 8 ]; [ 8 ] ], [ 2; 5; 8 ]);
      (Op.Scale_shift, [ [ 1; 4; 3; 3 ]; [ 4 ]; [ 4 ] ], [ 1; 4; 3; 3 ]);
      (Op.Layernorm { eps = 1e-5 }, [ [ 2; 3; 16 ]; [ 16 ]; [ 16 ] ], [ 2; 3; 16 ]);
      (Op.Reshape [ 4; -1 ], [ [ 2; 6 ] ], [ 4; 3 ]);
      (Op.Transpose [ 2; 0; 1 ], [ [ 3; 4; 5 ] ], [ 5; 3; 4 ]);
      (Op.Concat { axis = 1 }, [ [ 1; 2; 4 ]; [ 1; 3; 4 ] ], [ 1; 5; 4 ]);
      ( Op.Im2col { kh = 3; kw = 3; stride = 2; pad_h = 1; pad_w = 1 },
        [ [ 2; 16; 28; 28 ] ],
        [ 2; 144; 196 ] );
    ]
  in
  List.map
    (fun (op, ins, expected) ->
      Alcotest.test_case (Op.name op) `Quick (fun () ->
          Alcotest.check shape (Op.name op) expected (Op.infer_shape op ins)))
    cases

let infer_shape_error_cases =
  let bad =
    [
      (Op.Matmul, [ [ 3; 4 ]; [ 5; 6 ] ]);
      (Op.Matmul, [ [ 2; 3; 4 ]; [ 3; 4; 5 ] ]);
      (Op.Conv2d { stride = 1; pad_h = 0; pad_w = 0 }, [ [ 1; 3; 8; 8 ]; [ 8; 4; 3; 3 ] ]);
      (Op.Binary Op.Add, [ [ 2; 3 ]; [ 3; 2 ] ]);
      (Op.Bias_add, [ [ 2; 5 ]; [ 4 ] ]);
      (Op.Reshape [ 5; 5 ], [ [ 2; 6 ] ]);
      (Op.Transpose [ 0; 0 ], [ [ 2; 3 ] ]);
      (Op.Concat { axis = 0 }, [ [ 2; 3 ]; [ 2; 4 ] ]);
    ]
  in
  List.map
    (fun (op, ins) ->
      Alcotest.test_case ("rejects " ^ Op.name op) `Quick (fun () ->
          Alcotest.(check bool) (Op.name op) true
            (try
               ignore (Op.infer_shape op ins);
               false
             with Invalid_argument _ -> true)))
    bad

let test_classification () =
  let inj = [ Op.Unary Op.Relu; Op.Binary Op.Add; Op.Bias_add; Op.Scale_shift;
              Op.Reshape [ 4 ]; Op.Transpose [ 0 ];
              Op.Im2col { kh = 1; kw = 1; stride = 1; pad_h = 0; pad_w = 0 } ] in
  List.iter
    (fun op -> Alcotest.(check bool) (Op.name op) true (Op.is_injective op []))
    inj;
  let not_inj = [ Op.Matmul; Op.Softmax; Op.Global_avg_pool; Op.Concat { axis = 0 } ] in
  List.iter
    (fun op -> Alcotest.(check bool) (Op.name op) false (Op.is_injective op []))
    not_inj;
  Alcotest.(check bool) "im2col not bijective" false
    (Op.is_bijective (Op.Im2col { kh = 3; kw = 3; stride = 1; pad_h = 1; pad_w = 1 }) []);
  Alcotest.(check bool) "transpose bijective" true
    (Op.is_bijective (Op.Transpose [ 1; 0 ]) []);
  Alcotest.(check bool) "matmul anchor" true (Op.is_anchor Op.Matmul);
  Alcotest.(check bool) "softmax anchor" true (Op.is_anchor Op.Softmax);
  Alcotest.(check bool) "relu not anchor" false (Op.is_anchor (Op.Unary Op.Relu))

(* --- graph building & reference execution ----------------------------------- *)

let small_graph () =
  let g = G.create () in
  let x = G.input g [ 2; 4 ] in
  let w = G.constant g (T.full [ 4; 3 ] 0.5) in
  let y = G.relu g (G.matmul g x w) in
  G.set_outputs g [ y ];
  (g, x)

let test_builder_and_reference () =
  let g, x_id = small_graph () in
  Alcotest.(check int) "nodes" 4 (G.num_nodes g);
  Alcotest.(check shape) "out shape" [ 2; 3 ] (G.node_shape g (List.hd (G.outputs g)));
  Alcotest.(check (list int)) "inputs" [ x_id ] (G.input_ids g);
  let x = T.full [ 2; 4 ] 1. in
  let out = Ref.run1 g [ x ] in
  (* Every output element = relu(4 * 1 * 0.5) = 2. *)
  Array.iter (fun v -> Alcotest.(check (float 1e-9)) "value" 2. v) (T.data out)

let test_consumers () =
  let g = G.create () in
  let x = G.input g [ 4 ] in
  let a = G.relu g x in
  let b = G.gelu g x in
  let c = G.add g a b in
  G.set_outputs g [ c ];
  Alcotest.(check (list int)) "x consumers" [ a; b ] (G.consumers g x);
  Alcotest.(check (list int)) "a consumers" [ c ] (G.consumers g a)

(* --- the node index: indexed lookups against linear scans ----------------- *)

let invalid_msg f = match f () with _ -> None | exception Invalid_argument m -> Some m

let check_index what g =
  let n = G.num_nodes g in
  Alcotest.(check (list int))
    (what ^ ": ids are dense and in order")
    (List.init n Fun.id)
    (List.map (fun (nd : G.node) -> nd.G.id) (G.nodes g));
  for id = 0 to n - 1 do
    if G.node g id != Oracle.graph_node g id then
      Alcotest.failf "%s: node %d differs from the linear scan" what id;
    if G.node_shape g id != (Oracle.graph_node g id).G.shape then
      Alcotest.failf "%s: shape of node %d differs" what id;
    let want = Oracle.graph_consumers g id and got = G.consumers g id in
    if got <> want then
      Alcotest.failf "%s: consumers of %d are [%s], the scan says [%s]" what id
        (String.concat " " (List.map string_of_int got))
        (String.concat " " (List.map string_of_int want))
  done;
  List.iter
    (fun id ->
      let want = invalid_msg (fun () -> Oracle.graph_node g id) in
      Alcotest.(check (option string))
        (Printf.sprintf "%s: node %d raises like the scan" what id)
        want
        (invalid_msg (fun () -> G.node g id));
      Alcotest.(check (option string))
        (Printf.sprintf "%s: node_shape %d raises like the scan" what id)
        want
        (invalid_msg (fun () -> G.node_shape g id));
      Alcotest.(check (list int))
        (Printf.sprintf "%s: consumers of %d" what id)
        (Oracle.graph_consumers g id) (G.consumers g id))
    [ -1; n ]

(* Every zoo and tiny graph, as built, after each pass that rebuilds it and
   after an HGF round trip. *)
let test_index_agrees_with_scans () =
  let models = Hidet_models.Models.all @ Hidet_models.Models.tiny_all in
  List.iter
    (fun (name, mk) ->
      let g = mk () in
      let lowered = Passes.lower_conv_to_gemm g in
      List.iter
        (fun (what, g) -> check_index (name ^ " " ^ what) g)
        [
          ("built", g);
          ("lowered", lowered);
          ("folded", Passes.constant_fold lowered);
          ("optimized", Passes.optimize lowered);
          ("rebatched", Passes.rebatch g 2);
          ("reloaded", Hidet_graph.Graph_io.of_string (Hidet_graph.Graph_io.to_string g));
        ])
    models

let test_consumers_repeated_input () =
  let g = G.create () in
  let x = G.input g [ 4 ] in
  let y = G.add g x x in
  let z = G.relu g x in
  let w = G.add g y y in
  G.set_outputs g [ z; w ];
  Alcotest.(check (list int)) "x listed once per consumer" [ y; z ] (G.consumers g x);
  Alcotest.(check (list int)) "y" [ w ] (G.consumers g y);
  Alcotest.(check (list int)) "w" [] (G.consumers g w);
  check_index "add x x" g

(* --- passes ------------------------------------------------------------------- *)

let test_constant_folding () =
  let g = G.create () in
  let x = G.input g [ 2; 3 ] in
  let w = G.constant g (T.rand ~seed:1 [ 3; 4 ]) in
  let wt = G.transpose g w [ 1; 0 ] in
  let wtt = G.transpose g wt [ 1; 0 ] in
  let y = G.matmul g x wtt in
  G.set_outputs g [ y ];
  let g' = Passes.optimize g in
  (* Both transposes folded into one constant; DCE removes intermediates:
     input + constant + matmul = 3 nodes. *)
  Alcotest.(check int) "folded size" 3 (G.num_nodes g');
  let x_val = T.rand ~seed:2 [ 2; 3 ] in
  Alcotest.(check bool) "same semantics" true
    (T.allclose
       (Ref.run1 g [ x_val ])
       (Ref.run1 g' [ x_val ]))

let test_dead_code_elim () =
  let g = G.create () in
  let x = G.input g [ 4 ] in
  let live = G.relu g x in
  let _dead = G.gelu g x in
  let _dead2 = G.add g _dead _dead in
  G.set_outputs g [ live ];
  let g' = Passes.dead_code_elim g in
  Alcotest.(check int) "dead removed" 2 (G.num_nodes g')

let test_conv_lowering_semantics () =
  let g = G.create () in
  let x = G.input g [ 1; 3; 10; 10 ] in
  let w = G.constant g (T.rand ~seed:3 [ 5; 3; 3; 3 ]) in
  let y = G.conv2d g x w ~stride:2 ~padding:1 in
  G.set_outputs g [ y ];
  let g' = Passes.optimize (Passes.lower_conv_to_gemm g) in
  Alcotest.(check bool) "no conv nodes left" true
    (List.for_all
       (fun (n : G.node) -> match n.G.op with Op.Conv2d _ -> false | _ -> true)
       (G.nodes g'));
  Alcotest.(check bool) "has matmul" true
    (List.exists
       (fun (n : G.node) -> n.G.op = Op.Matmul)
       (G.nodes g'));
  let x_val = T.rand ~seed:4 [ 1; 3; 10; 10 ] in
  Alcotest.(check bool) "lowering preserves semantics" true
    (T.allclose ~rtol:1e-4 ~atol:1e-5 (Ref.run1 g [ x_val ]) (Ref.run1 g' [ x_val ]))

let test_conv_lowering_keeps_depthwise () =
  let g = G.create () in
  let x = G.input g [ 1; 4; 8; 8 ] in
  let w = G.constant g (T.rand ~seed:5 [ 4; 1; 3; 3 ]) in
  let y = G.depthwise_conv2d g x w ~stride:1 ~padding:1 in
  G.set_outputs g [ y ];
  let g' = Passes.lower_conv_to_gemm g in
  Alcotest.(check bool) "depthwise untouched" true
    (List.exists
       (fun (n : G.node) ->
         match n.G.op with Op.Depthwise_conv2d _ -> true | _ -> false)
       (G.nodes g'))

(* --- partitioning ---------------------------------------------------------------- *)

let conv_bn_relu_graph () =
  let g = G.create () in
  let x = G.input g [ 1; 3; 8; 8 ] in
  let w = G.constant g (T.rand ~seed:6 [ 4; 3; 3; 3 ]) in
  let s = G.constant g (T.rand ~seed:7 [ 4 ]) in
  let b = G.constant g (T.rand ~seed:8 [ 4 ]) in
  let conv = G.conv2d g x w ~stride:1 ~padding:1 in
  let bn = G.scale_shift g conv ~scale:s ~shift:b in
  let r = G.relu g bn in
  G.set_outputs g [ r ];
  g

let test_partition_conv_bn_relu () =
  let g = Passes.optimize (Passes.lower_conv_to_gemm (conv_bn_relu_graph ())) in
  let groups = Passes.partition g in
  (* One group: the matmul anchor with im2col prologue and
     reshape/scale_shift/relu epilogues. *)
  Alcotest.(check int) "one group" 1 (List.length groups);
  let grp = List.hd groups in
  Alcotest.(check bool) "anchor is matmul" true
    ((G.node g grp.Passes.anchor).G.op = Op.Matmul);
  Alcotest.(check int) "one prologue (im2col)" 1 (List.length grp.Passes.prologues);
  Alcotest.(check int) "three epilogues" 3 (List.length grp.Passes.epilogues)

let test_partition_complete_and_disjoint () =
  let check_graph g =
    let g = Passes.optimize (Passes.lower_conv_to_gemm g) in
    let groups = Passes.partition g in
    let covered = Hashtbl.create 32 in
    List.iter
      (fun (grp : Passes.group) ->
        List.iter
          (fun id ->
            if Hashtbl.mem covered id then Alcotest.failf "node %d in two groups" id;
            Hashtbl.replace covered id ())
          ((grp.Passes.anchor :: grp.Passes.prologues) @ grp.Passes.epilogues))
      groups;
    List.iter
      (fun (n : G.node) ->
        match n.G.op with
        | Op.Input | Op.Constant _ -> ()
        | _ ->
          if not (Hashtbl.mem covered n.G.id) then
            Alcotest.failf "node %d (%s) not in any group" n.G.id (Op.name n.G.op))
      (G.nodes g)
  in
  check_graph (conv_bn_relu_graph ());
  check_graph (Hidet_models.Models.Tiny.cnn ());
  check_graph (Hidet_models.Models.Tiny.transformer ());
  check_graph (Hidet_models.Models.Tiny.inception_module ())

let test_partition_shared_producer_not_epilogue () =
  (* A node consumed twice cannot be absorbed as an epilogue chain. *)
  let g = G.create () in
  let x = G.input g [ 4; 4 ] in
  let w = G.constant g (T.rand ~seed:9 [ 4; 4 ]) in
  let mm = G.matmul g x w in
  let r = G.relu g mm in
  let out = G.add g r (G.gelu g r) in
  G.set_outputs g [ out ];
  let groups = Passes.partition g in
  let mm_group =
    List.find (fun grp -> (G.node g grp.Passes.anchor).G.op = Op.Matmul) groups
  in
  (* relu (two consumers) may only be absorbed as the group's final node —
     its value must be materialized for the other consumer. *)
  if List.mem r mm_group.Passes.epilogues then
    Alcotest.(check int) "relu is the group output" r mm_group.Passes.output
  else
    Alcotest.(check bool) "chain stopped before relu" true
      (mm_group.Passes.output = mm)

let test_graph_outputs_not_absorbed () =
  (* A node that is a graph output must terminate the epilogue chain. *)
  let g = G.create () in
  let x = G.input g [ 4; 4 ] in
  let w = G.constant g (T.rand ~seed:10 [ 4; 4 ]) in
  let mm = G.matmul g x w in
  let r = G.relu g mm in
  G.set_outputs g [ mm; r ];
  let groups = Passes.partition g in
  let mm_group =
    List.find (fun grp -> grp.Passes.anchor = mm) groups
  in
  Alcotest.(check (list int)) "no epilogues past an output" []
    mm_group.Passes.epilogues

(* The graph passes bit for bit: each zoo and tiny model's graph after
   [lower_conv_to_gemm], after [optimize] and after [rebatch g 2] (each
   node's id, op name, inputs and shape, and the outputs), plus the
   [partition] groups of the optimized graph, in one MD5. A drift in ids,
   order or grouping fails here even when the plans do not move. *)
let passes_digest g =
  let b = Buffer.create 65536 in
  let ints l = String.concat " " (List.map string_of_int l) in
  let graph_text g =
    List.iter
      (fun (n : G.node) ->
        Printf.bprintf b "%d %s (%s) [%s]\n" n.G.id (Op.name n.G.op)
          (ints n.G.inputs) (ints n.G.shape))
      (G.nodes g);
    Printf.bprintf b "outputs %s\n" (ints (G.outputs g))
  in
  let lowered = Passes.lower_conv_to_gemm g in
  let optimized = Passes.optimize lowered in
  graph_text lowered;
  graph_text optimized;
  graph_text (Passes.rebatch g 2);
  List.iter
    (fun (gr : Passes.group) ->
      Printf.bprintf b "group %d (%s) (%s) %d\n" gr.Passes.anchor
        (ints gr.Passes.prologues) (ints gr.Passes.epilogues) gr.Passes.output)
    (Passes.partition optimized);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_passes_pinned () =
  let pinned =
    [
      ("resnet50", "e6361bd1106ee72f4cca7eba059e22ca");
      ("inception_v3", "36588b4d10d8286d001388415860190e");
      ("mobilenet_v2", "023ec96e47fa99f089bc3b21363ea4e6");
      ("bert", "ce6df78e17736764b50019253023c73d");
      ("gpt2", "b781fe041d07c150369a5f889e69f878");
      ("tiny_cnn", "147be0272fe1204cc9793e1f3fb941e8");
      ("tiny_separable", "72e2e2d32e849a8606f72fd784e8b84c");
      ("tiny_transformer", "cf28e7954ed48eeeb1f3af57aca17a10");
      ("tiny_inception", "33d1289cf07ffc8f02763f0618be3547");
    ]
  in
  Alcotest.(check (list (pair string string))) "passes digests" pinned
    (List.map
       (fun (name, mk) -> (name, passes_digest (mk ())))
       (Hidet_models.Models.all @ Hidet_models.Models.tiny_all))

(* --- serialization ---------------------------------------------------------- *)

module Gio = Hidet_graph.Graph_io

let test_roundtrip_exact () =
  (* Small constants serialize with data: reference execution must agree
     exactly after a round trip. *)
  let g = Hidet_models.Models.Tiny.cnn () in
  let g' = Gio.of_string (Gio.to_string g) in
  Alcotest.(check int) "same node count" (G.num_nodes g) (G.num_nodes g');
  Alcotest.(check string) "same name" (G.get_name g) (G.get_name g');
  let x = T.rand ~seed:11 [ 1; 3; 16; 16 ] in
  Alcotest.(check bool) "same semantics" true
    (T.allclose (Ref.run1 g [ x ]) (Ref.run1 g' [ x ]))

let test_roundtrip_structure () =
  (* Large weights become random placeholders, but structure, shapes and
     FLOPs survive. *)
  let g = Hidet_models.Models.resnet50 () in
  let g' = Gio.of_string (Gio.to_string g) in
  Alcotest.(check int) "node count" (G.num_nodes g) (G.num_nodes g');
  Alcotest.(check (float 1.)) "flops" (G.flops g) (G.flops g');
  Alcotest.(check (list int)) "output shape"
    (G.node_shape g (List.hd (G.outputs g)))
    (G.node_shape g' (List.hd (G.outputs g')))

let test_roundtrip_twice_stable () =
  let g = Hidet_models.Models.Tiny.transformer () in
  let once = Gio.to_string (Gio.of_string (Gio.to_string g)) in
  Alcotest.(check string) "fixpoint" (Gio.to_string g) once

(* An HGF line as [Graph_io.to_string] writes it: the s-expression, a tab
   and its MD5. *)
let signed body = body ^ "\t" ^ Digest.to_hex (Digest.string body)
let hgf lines = String.concat "" (List.map (fun l -> l ^ "\n") lines)

(* The line number a [Graph_io.of_string] failure names, if any. *)
let failing_line s =
  match Gio.of_string s with
  | _ -> None
  | exception Failure msg -> (
    try Scanf.sscanf msg "Graph_io.of_string: line %d: %_s@\n" (fun n -> Some n)
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> Some (-1))

let test_malformed_rejected () =
  let header = signed "(graph \"x\")" in
  List.iter
    (fun (text, line) ->
      Alcotest.(check (option int)) ("rejects " ^ String.escaped text) (Some line)
        (failing_line text))
    [
      ("", 1);
      (hgf [ signed "(graph \"x\"" ], 1);
      (hgf [ "(graph \"x\")" ], 1);
      (hgf [ header; signed "(node 0 (input) (shape 4))" ], 3);
      (hgf [ header; signed "(node 0 (wat) (shape 4))"; signed "(outputs 0)" ], 2);
      ( hgf
          [ header; signed "(node 0 (relu) (inputs 5) (shape 4))"; signed "(outputs 0)" ],
        2 );
      ( hgf
          [
            header;
            signed "(node 0 (input) (shape 2 2))";
            signed "(node 1 (reshape 5) (inputs 0) (shape 5))";
            signed "(outputs 1)";
          ],
        3 );
      ( hgf [ header; signed "(node 1 (input) (shape 4))"; signed "(outputs 1)" ], 2 );
      ( hgf [ header; signed "(node 0 (input) (shape 4))"; signed "(outputs 1)" ], 3 );
      ( hgf
          [
            header;
            signed "(node 0 (input) (shape 4))";
            signed "(outputs 0)";
            signed "(outputs 0)";
          ],
        4 );
      ( hgf
          [ header; signed "(node 0 (constant (data 1 2)) (shape 3))"; signed "(outputs 0)" ],
        2 );
      ( hgf [ header; "(node 0 (input) (shape 4))\t0123"; signed "(outputs 0)" ], 2 );
    ];
  Alcotest.(check (option int)) "a signed file loads" None
    (failing_line
       (hgf [ header; signed "(node 0 (input) (shape 4))"; signed "(outputs 0)" ]))

(* Shapes [infer_shape] must refuse, each with [Invalid_argument "Op
   <name>: ..."], and the same node in an HGF file, refused naming its
   line: a non-positive stride, a non-positive output dim, a rank-0 input
   where the last axis is read. *)
let malformed_shape_cases =
  let conv_on hw =
    let d = string_of_int hw in
    [
      signed (Printf.sprintf "(node 0 (input) (shape 1 3 %s %s))" d d);
      signed "(node 1 (constant random) (shape 4 3 3 3))";
      signed "(node 2 (conv2d 1 0 0) (inputs 0 1) (shape 1 4 1 1))";
    ]
  in
  let rank0 op_sexp extra =
    [
      signed "(node 0 (input) (shape))";
      signed "(node 1 (constant (data 1 2 3 4)) (shape 4))";
      signed
        (Printf.sprintf "(node 2 (%s) (inputs 0 1%s) (shape))" op_sexp extra);
    ]
  in
  let cases =
    [
      ( "zero stride",
        Op.Conv2d { stride = 0; pad_h = 0; pad_w = 0 },
        [ [ 1; 3; 8; 8 ]; [ 4; 3; 3; 3 ] ],
        [
          signed "(node 0 (input) (shape 1 3 8 8))";
          signed "(node 1 (constant random) (shape 4 3 3 3))";
          signed "(node 2 (conv2d 0 0 0) (inputs 0 1) (shape 1 4 8 8))";
        ] );
      ( "negative pool stride",
        Op.Pool2d { kind = Op.Max_pool; kernel = 2; stride = -1; padding = 0 },
        [ [ 1; 3; 8; 8 ] ],
        [
          signed "(node 0 (input) (shape 1 3 8 8))";
          signed "(node 1 (pool2d max 2 -1 0) (inputs 0) (shape 1 3 8 8))";
        ] );
      ( "3x3 conv on 2x2",
        Op.Conv2d { stride = 1; pad_h = 0; pad_w = 0 },
        [ [ 1; 3; 2; 2 ]; [ 4; 3; 3; 3 ] ],
        conv_on 2 );
      ( "3x3 conv on 1x1",
        Op.Conv2d { stride = 1; pad_h = 0; pad_w = 0 },
        [ [ 1; 3; 1; 1 ]; [ 4; 3; 3; 3 ] ],
        conv_on 1 );
      ( "negative reshape",
        Op.Reshape [ -2; -3 ],
        [ [ 6 ] ],
        [
          signed "(node 0 (input) (shape 6))";
          signed "(node 1 (reshape -2 -3) (inputs 0) (shape -2 -3))";
        ] );
      ( "zero pool kernel",
        Op.Pool2d { kind = Op.Max_pool; kernel = 0; stride = 1; padding = 0 },
        [ [ 1; 2; 4; 4 ] ],
        [
          signed "(node 0 (input) (shape 1 2 4 4))";
          signed "(node 1 (pool2d max 0 1 0) (inputs 0) (shape 1 2 5 5))";
        ] );
      ( "negative pool padding",
        Op.Pool2d { kind = Op.Max_pool; kernel = 2; stride = 1; padding = -1 },
        [ [ 1; 2; 4; 4 ] ],
        [
          signed "(node 0 (input) (shape 1 2 4 4))";
          signed "(node 1 (pool2d max 2 1 -1) (inputs 0) (shape 1 2 1 1))";
        ] );
      ( "negative conv padding",
        Op.Conv2d { stride = 1; pad_h = -1; pad_w = 0 },
        [ [ 1; 3; 4; 4 ]; [ 3; 3; 1; 1 ] ],
        [
          signed "(node 0 (input) (shape 1 3 4 4))";
          signed "(node 1 (constant random) (shape 3 3 1 1))";
          signed "(node 2 (conv2d 1 -1 0) (inputs 0 1) (shape 1 3 2 4))";
        ] );
      ( "negative depthwise padding",
        Op.Depthwise_conv2d { stride = 1; padding = -1 },
        [ [ 1; 3; 6; 6 ]; [ 3; 1; 3; 3 ] ],
        [
          signed "(node 0 (input) (shape 1 3 6 6))";
          signed "(node 1 (constant random) (shape 3 1 3 3))";
          signed "(node 2 (dwconv2d 1 -1) (inputs 0 1) (shape 1 3 2 2))";
        ] );
      ( "negative im2col padding",
        Op.Im2col { kh = 1; kw = 1; stride = 1; pad_h = -1; pad_w = 0 },
        [ [ 1; 3; 4; 4 ] ],
        [
          signed "(node 0 (input) (shape 1 3 4 4))";
          signed "(node 1 (im2col 1 1 1 -1 0) (inputs 0) (shape 1 3 8))";
        ] );
      ("rank-0 bias_add", Op.Bias_add, [ []; [ 4 ] ], rank0 "bias_add" "");
      ( "rank-0 softmax",
        Op.Softmax,
        [ [] ],
        [
          signed "(node 0 (input) (shape))";
          signed "(node 1 (softmax) (inputs 0) (shape))";
        ] );
      ( "rank-0 layernorm",
        Op.Layernorm { eps = 1e-5 },
        [ []; [ 4 ]; [ 4 ] ],
        rank0 "layernorm 1e-05" " 1" );
    ]
  in
  List.map
    (fun (label, op, ins, nodes) ->
      Alcotest.test_case label `Quick (fun () ->
          let prefix = "Op " ^ Op.name op ^ ": " in
          (match Op.infer_shape op ins with
          | s ->
            Alcotest.failf "inferred [%s]"
              (String.concat "; " (List.map string_of_int s))
          | exception Invalid_argument msg ->
            Alcotest.(check string) ("message: " ^ msg) prefix
              (String.sub msg 0 (min (String.length msg) (String.length prefix))));
          let last = List.length nodes + 1 in
          Alcotest.(check (option int)) "HGF line" (Some last)
            (failing_line
               (hgf
                  ((signed "(graph \"x\")" :: nodes)
                  @ [ signed (Printf.sprintf "(outputs %d)" (last - 2)) ])))))
    cases
  @ [
      (* A leaf's shape is not inferred: the error names the leaf's own
         line, not its consumer's. *)
      Alcotest.test_case "non-positive input dim" `Quick (fun () ->
          Alcotest.check_raises "Graph.input"
            (Invalid_argument "Graph.input: non-positive dim in [0; 3]")
            (fun () -> ignore (G.input (G.create ()) [ 0; 3 ]));
          Alcotest.(check (option int)) "HGF line" (Some 2)
            (failing_line
               (hgf
                  [
                    signed "(graph \"x\")";
                    signed "(node 0 (input) (shape 0 3))";
                    signed "(node 1 (relu) (inputs 0) (shape 0 3))";
                    signed "(outputs 1)";
                  ])));
    ]

(* The HGF text of every zoo and tiny model, built on first use. *)
let hgf_texts =
  lazy
    (Array.of_list
       (List.map
          (fun (name, mk) -> (name, Gio.to_string (mk ())))
          (Hidet_models.Models.all @ Hidet_models.Models.tiny_all)))

type mutation =
  | Flip of int * int  (* byte offset, xor mask in 1..255 *)
  | Truncate of int
  | Duplicate of int  (* line index *)
  | Swap of int * int

let apply text = function
  | Flip (pos, mask) ->
    let b = Bytes.of_string text in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
    Bytes.to_string b
  | Truncate len -> String.sub text 0 len
  | Duplicate i ->
    let lines = String.split_on_char '\n' text in
    String.concat "\n" (List.concat (List.mapi (fun j l -> if j = i then [ l; l ] else [ l ]) lines))
  | Swap (i, j) ->
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let t = lines.(i) in
    lines.(i) <- lines.(j);
    lines.(j) <- t;
    String.concat "\n" (Array.to_list lines)

let show_mutation = function
  | Flip (p, m) -> Printf.sprintf "flip byte %d with xor 0x%02x" p m
  | Truncate n -> Printf.sprintf "truncate to %d bytes" n
  | Duplicate i -> Printf.sprintf "duplicate line %d" (i + 1)
  | Swap (i, j) -> Printf.sprintf "swap lines %d and %d" (i + 1) (j + 1)

let gen_mutated =
  QCheck.Gen.delay (fun () ->
      let open QCheck.Gen in
      let texts = Lazy.force hgf_texts in
      let* k = int_bound (Array.length texts - 1) in
      let text = snd texts.(k) in
      let len = String.length text in
      (* Lines of the text; the final newline leaves an empty last element. *)
      let lines = List.length (String.split_on_char '\n' text) - 1 in
      let* m =
        oneof
          [
            map2 (fun p x -> Flip (p, 1 + x)) (int_bound (len - 1)) (int_bound 254);
            map (fun n -> Truncate n) (int_bound (len - 1));
            map (fun i -> Duplicate i) (int_bound (lines - 1));
            map2 (fun i j -> Swap (i, j)) (int_bound (lines - 1)) (int_bound (lines - 1));
          ]
      in
      return (k, m))

(* A mutated HGF file either fails naming a line of it (or the line after
   its last) or loads as the graph that was saved. *)
let prop_hgf_mutation =
  QCheck.Test.make ~count:150 ~name:"HGF mutations fail on a line or load the same graph"
    (QCheck.make
       ~print:(fun (k, m) ->
         Printf.sprintf "%s: %s" (fst (Lazy.force hgf_texts).(k)) (show_mutation m))
       gen_mutated)
    (fun (k, m) ->
      let _, text = (Lazy.force hgf_texts).(k) in
      let mutated = apply text m in
      let lines = List.length (String.split_on_char '\n' mutated) in
      match failing_line mutated with
      | Some n -> n >= 1 && n <= lines + 1
      | None -> Gio.to_string (Gio.of_string mutated) = text)

(* --- embedding ----------------------------------------------------------------- *)

let test_embedding_reference () =
  let g = G.create () in
  let ids = G.input g [ 1; 4 ] in
  let table = G.constant g (T.init [ 10; 3 ] (fun idx ->
      match idx with [ v; d ] -> float_of_int ((10 * v) + d) | _ -> 0.)) in
  let e = G.add_op g Op.Embedding [ ids; table ] in
  G.set_outputs g [ e ];
  let out = Ref.run1 g [ T.of_array [ 1; 4 ] [| 3.; 0.; 9.; 3. |] ] in
  Alcotest.(check (list int)) "shape" [ 1; 4; 3 ] (T.shape out);
  Alcotest.(check (float 1e-9)) "gathered" 31. (T.get out [ 0; 0; 1 ]);
  Alcotest.(check (float 1e-9)) "row 9" 92. (T.get out [ 0; 2; 2 ])

let test_embedding_scheduled () =
  let ids = T.of_array [ 2; 3 ] [| 1.; 4.; 0.; 2.; 2.; 3. |] in
  let table = T.rand ~seed:13 [ 5; 8 ] in
  let def = Op.to_def Op.Embedding [ [ 2; 3 ]; [ 5; 8 ] ] in
  let compiled = Hidet_sched.Rule_based.schedule def in
  let got = Hidet_sched.Compiled.run compiled [ ids; table ] in
  let expect = Op.eval Op.Embedding [ ids; table ] in
  Alcotest.(check bool) "gather kernel" true (T.allclose expect got)

let test_bert_with_embedding () =
  let g = Hidet_models.Models.bert_base ~embed:true () in
  Alcotest.(check (list int)) "ids input" [ 1; 128 ]
    (G.node_shape g (List.hd (G.input_ids g)));
  Alcotest.(check bool) "has embedding op" true
    (List.exists (fun (n : G.node) -> n.G.op = Op.Embedding) (G.nodes g))

let () =
  Alcotest.run "hidet_graph"
    [
      ("shape inference", infer_shape_cases);
      ("shape inference errors", infer_shape_error_cases);
      ("malformed shapes", malformed_shape_cases);
      ("ops", [ Alcotest.test_case "classification" `Quick test_classification ]);
      ( "graph",
        [
          Alcotest.test_case "builder + reference" `Quick test_builder_and_reference;
          Alcotest.test_case "consumers" `Quick test_consumers;
          Alcotest.test_case "consumers of a repeated input" `Quick
            test_consumers_repeated_input;
          Alcotest.test_case "index agrees with linear scans" `Quick
            test_index_agrees_with_scans;
        ] );
      ( "passes",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "dead code elim" `Quick test_dead_code_elim;
          Alcotest.test_case "conv lowering semantics" `Quick test_conv_lowering_semantics;
          Alcotest.test_case "depthwise untouched" `Quick test_conv_lowering_keeps_depthwise;
          Alcotest.test_case "pinned digests" `Quick test_passes_pinned;
        ] );
      ( "partition",
        [
          Alcotest.test_case "conv-bn-relu group" `Quick test_partition_conv_bn_relu;
          Alcotest.test_case "complete and disjoint" `Quick test_partition_complete_and_disjoint;
          Alcotest.test_case "shared producer" `Quick test_partition_shared_producer_not_epilogue;
          Alcotest.test_case "outputs not absorbed" `Quick test_graph_outputs_not_absorbed;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "exact roundtrip" `Quick test_roundtrip_exact;
          Alcotest.test_case "structural roundtrip" `Quick test_roundtrip_structure;
          Alcotest.test_case "fixpoint" `Quick test_roundtrip_twice_stable;
          Alcotest.test_case "malformed rejected" `Quick test_malformed_rejected;
          QCheck_alcotest.to_alcotest prop_hgf_mutation;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "reference gather" `Quick test_embedding_reference;
          Alcotest.test_case "scheduled gather" `Quick test_embedding_scheduled;
          Alcotest.test_case "bert with embedding" `Quick test_bert_with_embedding;
        ] );
    ]
