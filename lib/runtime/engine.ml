module G = Hidet_graph.Graph
module Passes = Hidet_graph.Passes
module Trace = Hidet_obs.Trace

type capability = Low | Medium | High

type caps = {
  graph_opt : capability;
  kernel_opt : capability;
  tuning_time : capability;
  engineering_effort : capability;
}

type result = {
  engine : string;
  model : string;
  latency : float;
  tuning_cost : float;
  cached_tuning_cost : float;
  tuning_wall : float;
  compile_wall : float;
  kernel_count : int;
  plan : Plan.t;
}

let total_tuning_cost r = r.tuning_cost +. r.cached_tuning_cost

module type S = sig
  val name : string
  val caps : caps
  val compile : Hidet_gpu.Device.t -> Hidet_graph.Graph.t -> result
end

type tuning = { fresh : float; cached : float; wall : float }

let compile ~engine ~lower_convs ~fidelity device g config tuning =
  Trace.span
    ~attrs:(fun () ->
      [ ("engine", engine); ("model", G.get_name g); ("device", device.Hidet_gpu.Device.name) ])
    "compile_plan"
    (fun root ->
      let t0 = Unix.gettimeofday () in
      let g =
        if lower_convs then
          Trace.span "lower_conv_to_gemm" (fun _ -> Passes.lower_conv_to_gemm g)
        else g
      in
      let g = Trace.span "graph_optimize" (fun _ -> Passes.optimize g) in
      let plan = Group_compiler.compile_graph config g in
      let latency =
        Trace.span "estimate_latency" (fun _ -> Plan.latency ~fidelity device plan)
      in
      let kernel_count = Plan.kernel_count plan in
      Trace.add root "kernels" (string_of_int kernel_count);
      Trace.add root "latency_us" (Printf.sprintf "%.3f" (latency *. 1e6));
      let t = tuning () in
      {
        engine;
        model = G.get_name g;
        latency;
        tuning_cost = t.fresh;
        cached_tuning_cost = t.cached;
        tuning_wall = t.wall;
        compile_wall = Unix.gettimeofday () -. t0;
        kernel_count;
        plan;
      })

let capability_dots = function Low -> "o" | Medium -> "oo" | High -> "ooo"
