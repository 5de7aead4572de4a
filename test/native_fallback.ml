(* Child process for the missing-toolchain test in test_exec_ocaml: runs a
   tiny model's plan twice on the native backend and prints the fallback
   counter next to the number of kernel launches. The parent starts it
   with a PATH that holds no ocamlfind, because the toolchain probe runs
   once per process. *)

module G = Hidet_graph.Graph
module HE = Hidet.Hidet_engine
module Plan = Hidet_runtime.Plan
module Metrics = Hidet_obs.Metrics

let () =
  let g = Hidet_models.Models.Tiny.cnn () in
  let plan, _ = HE.compile_plan Hidet_gpu.Device.rtx3090 g in
  let inputs =
    List.map
      (fun id -> Hidet_tensor.Tensor.rand ~seed:1 (G.node_shape g id))
      (G.input_ids g)
  in
  let runs = 2 in
  for _ = 1 to runs do
    ignore (Plan.run1 ~backend:`Native plan inputs)
  done;
  Printf.printf "fallbacks=%d launches=%d\n"
    (Metrics.value (Metrics.counter "sim.native.fallbacks"))
    (runs * Plan.kernel_count plan)
