(* Tests for the runtime layer: execution plans (argument wiring, constant
   forcing, intermediate reshaping, multi-output graphs), the shared group
   compiler (fusion predicates, fallback to standalone kernels) and the
   profiler report. *)

module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module Passes = Hidet_graph.Passes
module Plan = Hidet_runtime.Plan
module GC = Hidet_runtime.Group_compiler
module RB = Hidet_sched.Rule_based
module C = Hidet_sched.Compiled
module T = Hidet_tensor.Tensor
module Ref = Hidet_graph.Reference
module Profiler = Hidet_runtime.Profiler

let dev = Hidet_gpu.Device.rtx3090

let rule_based_config ~fuse =
  {
    GC.schedule_anchor =
      (fun g n -> RB.schedule (Op.to_def n.G.op (List.map (G.node_shape g) n.G.inputs)));
    may_fuse_prologue = (fun _ -> fuse);
    may_fuse_epilogue = (fun _ -> fuse);
  }

let chain_graph () =
  let g = G.create () in
  let x = G.input g [ 4; 8 ] in
  let w = G.constant g (T.rand ~seed:1 [ 8; 8 ]) in
  let mm = G.matmul g x w in
  let r = G.relu g mm in
  let out = G.reshape g r [ 32 ] in
  G.set_outputs g [ out ];
  g

let test_plan_runs_and_reshapes () =
  let g = chain_graph () in
  let plan = GC.compile_graph (rule_based_config ~fuse:true) g in
  let x = T.rand ~seed:2 [ 4; 8 ] in
  let got = Plan.run1 plan [ x ] in
  Alcotest.(check (list int)) "shape follows graph" [ 32 ] (T.shape got);
  Alcotest.(check bool) "matches reference" true
    (T.allclose ~rtol:1e-3 ~atol:1e-4 (Ref.run1 g [ x ]) got)

let test_fusion_predicate_controls_kernels () =
  let g = chain_graph () in
  let fused = GC.compile_graph (rule_based_config ~fuse:true) g in
  let unfused = GC.compile_graph (rule_based_config ~fuse:false) g in
  Alcotest.(check bool)
    (Printf.sprintf "fused %d < unfused %d steps" (List.length fused.Plan.steps)
       (List.length unfused.Plan.steps))
    true
    (List.length fused.Plan.steps < List.length unfused.Plan.steps);
  (* Both compute the same function. *)
  let x = T.rand ~seed:3 [ 4; 8 ] in
  Alcotest.(check bool) "same results" true
    (T.allclose ~rtol:1e-3 ~atol:1e-4 (Plan.run1 fused [ x ]) (Plan.run1 unfused [ x ]))

let test_standalone_fallback_on_unfusable () =
  (* A transpose whose rank cannot match the row-template softmax buffer
     must fall back to a standalone kernel, preserving semantics. *)
  let g = G.create () in
  let x = G.input g [ 2; 3; 5 ] in
  let t = G.transpose g x [ 1; 0; 2 ] in
  let s = G.softmax g t in
  G.set_outputs g [ s ];
  let cfg =
    {
      GC.schedule_anchor =
        (fun g n ->
          match n.G.op with
          | Op.Softmax ->
            (* rows x cols buffer: rank 2 vs the rank-3 transpose. *)
            Hidet_sched.Row_templates.softmax ~rows:6 ~cols:5 ()
          | op -> RB.schedule (Op.to_def op (List.map (G.node_shape g) n.G.inputs)));
      may_fuse_prologue = (fun _ -> true);
      may_fuse_epilogue = (fun _ -> true);
    }
  in
  let plan = GC.compile_graph cfg g in
  Alcotest.(check int) "transpose ran standalone" 2 (List.length plan.Plan.steps);
  let x_val = T.rand ~seed:4 [ 2; 3; 5 ] in
  Alcotest.(check bool) "semantics preserved" true
    (T.allclose ~rtol:1e-4 ~atol:1e-5 (Ref.run1 g [ x_val ]) (Plan.run1 plan [ x_val ]))

let test_multi_output_graph () =
  let g = G.create () in
  let x = G.input g [ 8 ] in
  let a = G.relu g x in
  let b = G.gelu g x in
  G.set_outputs g [ a; b ];
  let plan = GC.compile_graph (rule_based_config ~fuse:true) g in
  let x_val = T.rand ~seed:5 [ 8 ] in
  match (Plan.run plan [ (List.hd (G.input_ids g), x_val) ], Ref.run g [ (List.hd (G.input_ids g), x_val) ]) with
  | [ ga; gb ], [ ra; rb ] ->
    Alcotest.(check bool) "output a" true (T.allclose ra ga);
    Alcotest.(check bool) "output b" true (T.allclose rb gb)
  | _ -> Alcotest.fail "expected two outputs"

let test_unbound_input_rejected () =
  let g = chain_graph () in
  let plan = GC.compile_graph (rule_based_config ~fuse:true) g in
  Alcotest.(check bool) "missing input raises" true
    (try
       ignore (Plan.run plan []);
       false
     with Invalid_argument _ -> true)

let test_plan_accounting () =
  let g = chain_graph () in
  let plan = GC.compile_graph (rule_based_config ~fuse:true) g in
  Alcotest.(check bool) "latency positive" true (Plan.latency dev plan > 0.);
  Alcotest.(check bool) "kernel count positive" true (Plan.kernel_count plan > 0);
  let src = Plan.cuda_source plan in
  Alcotest.(check bool) "cuda source nonempty" true (String.length src > 200)

(* Weight thunks ([Graph.constant_lazy]) are shared across plans and OCaml's
   [Lazy] is not domain-safe: unsynchronized concurrent forcing can raise
   [Lazy.Undefined] or run the thunk twice. [Plan.run] serializes forcing, so
   the thunk runs exactly once no matter how many domains race through it. *)
let lazy_weight_graph counter =
  let g = G.create () in
  let x = G.input g [ 4; 8 ] in
  let w =
    G.constant_lazy g [ 8; 8 ]
      (lazy
        (Atomic.incr counter;
         T.rand ~seed:1 [ 8; 8 ]))
  in
  G.set_outputs g [ G.relu g (G.matmul g x w) ];
  g

let test_constant_forced_once_across_domains () =
  let forced = Atomic.make 0 in
  let plan =
    GC.compile_graph (rule_based_config ~fuse:true) (lazy_weight_graph forced)
  in
  let x = T.rand ~seed:2 [ 4; 8 ] in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Plan.run1 plan [ x ]))
  in
  let results = List.map Domain.join domains in
  Alcotest.(check int) "thunk ran exactly once" 1 (Atomic.get forced);
  List.iter
    (fun r ->
      Alcotest.(check bool) "all domains agree bit for bit" true
        (compare (T.data r) (T.data (List.hd results)) = 0))
    results

let test_prepare_forces_constants_eagerly () =
  let forced = Atomic.make 0 in
  let plan =
    GC.compile_graph (rule_based_config ~fuse:true) (lazy_weight_graph forced)
  in
  Alcotest.(check int) "compilation does not force weights" 0 (Atomic.get forced);
  Plan.prepare plan;
  Alcotest.(check int) "prepare forces them" 1 (Atomic.get forced);
  ignore (Plan.run1 plan [ T.rand ~seed:2 [ 4; 8 ] ]);
  Alcotest.(check int) "run reuses the forced value" 1 (Atomic.get forced)

(* The profiler's rows are the latency model's per-kernel estimates: per
   step, in launch order, they add up to [Plan.latency] bit for bit under
   either fidelity, and only cycle rows carry the cycle model's extras. *)
let test_profiler_sums_to_plan_latency () =
  List.iter
    (fun (name, mk) ->
      let plan, _ = Hidet.Hidet_engine.compile_plan dev (mk ()) in
      List.iter
        (fun fidelity ->
          let rows = Profiler.report ~fidelity dev plan in
          let per_step =
            List.mapi
              (fun i _ ->
                List.fold_left
                  (fun acc (r : Profiler.row) ->
                    if r.step = i then acc +. r.latency else acc)
                  0. rows)
              plan.Plan.steps
          in
          let label =
            name ^ match fidelity with `Analytic -> " analytic" | `Cycle -> " cycle"
          in
          Alcotest.(check int) (label ^ ": one row per kernel")
            (Plan.kernel_count plan) (List.length rows);
          Alcotest.(check (float 0.)) (label ^ ": rows sum to Plan.latency")
            (Plan.latency ~fidelity dev plan)
            (List.fold_left ( +. ) 0. per_step);
          Alcotest.(check bool) (label ^ ": cycle extras iff cycle") true
            (List.for_all
               (fun (r : Profiler.row) -> (r.cycle <> None) = (fidelity = `Cycle))
               rows))
        [ `Analytic; `Cycle ])
    Hidet_models.Models.tiny_all

let () =
  Alcotest.run "hidet_runtime"
    [
      ( "plan",
        [
          Alcotest.test_case "runs and reshapes" `Quick test_plan_runs_and_reshapes;
          Alcotest.test_case "multi-output" `Quick test_multi_output_graph;
          Alcotest.test_case "unbound input" `Quick test_unbound_input_rejected;
          Alcotest.test_case "accounting" `Quick test_plan_accounting;
          Alcotest.test_case "constants force once across domains" `Quick
            test_constant_forced_once_across_domains;
          Alcotest.test_case "prepare forces constants eagerly" `Quick
            test_prepare_forces_constants_eagerly;
        ] );
      ( "group compiler",
        [
          Alcotest.test_case "fusion predicate" `Quick test_fusion_predicate_controls_kernels;
          Alcotest.test_case "standalone fallback" `Quick test_standalone_fallback_on_unfusable;
        ] );
      ( "profiler",
        [
          Alcotest.test_case "rows sum to plan latency" `Quick
            test_profiler_sums_to_plan_latency;
        ] );
    ]
