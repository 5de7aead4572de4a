module G = Hidet_graph.Graph
module Passes = Hidet_graph.Passes
module M = Hidet_models.Models
module E = Hidet_runtime.Engine
module Plan = Hidet_runtime.Plan
module Metrics = Hidet_obs.Metrics
module Trace = Hidet_obs.Trace

module Shard = Hidet_shard.Shard

type source = Zoo of string | File of string | Graph of G.t

type variant = {
  bucket : int;
  graph : G.t;
  plan : Plan.t;
  latency : float;
  result : E.result;
  shard : Shard.t option;
}

type model = {
  name : string;
  engine : string;
  input_shapes : int list list;
  variants : variant list;
  max_inflight : int;
  sharding : string option;
  backend : Hidet_sched.Compiled.backend;
}

let m_models = Metrics.counter "serve.models_loaded"
let m_variants = Metrics.counter "serve.variants_compiled"

let base_graph = function
  | Graph g -> g
  | File path -> Hidet_graph.Graph_io.load path
  | Zoo name -> (
    if List.mem_assoc name M.all then M.by_name ~batch:1 name
    else
      match List.assoc_opt name M.tiny_all with
      | Some mk -> mk ()
      | None ->
        invalid_arg
          (Printf.sprintf
             "Registry: unknown model %S (zoo: %s; tiny: %s)" name
             (String.concat ", " (List.map fst M.all))
             (String.concat ", " (List.map fst M.tiny_all))))

(* Zoo builders are batch-parameterized (faithful per-batch layer shapes);
   everything else is rebound with the generic leading-dim pass. *)
let bucket_graph source base bucket =
  match source with
  | Zoo name when List.mem_assoc name M.all -> M.by_name ~batch:bucket name
  | _ -> if bucket = 1 then base else Passes.rebatch base bucket

let load ?(max_inflight = max_int) ?cluster ?(parallel = Shard.Data)
    ?(backend = `Closure) ?options ~engine ~device ~buckets source =
  let (module Eng : E.S) = engine in
  let base = base_graph source in
  if List.length (G.outputs base) <> 1 then
    invalid_arg
      "Registry: only single-output graphs are served (per-request demux \
       slices the output's leading dim)";
  let name = G.get_name base in
  let buckets =
    List.sort_uniq compare (1 :: buckets)
    |> List.filter (fun b ->
           if b < 1 then invalid_arg "Registry: buckets must be >= 1" else true)
  in
  let variants =
    List.map
      (fun bucket ->
        Trace.span
          ~attrs:(fun () ->
            [ ("model", name); ("bucket", string_of_int bucket) ])
          "serve.load_variant"
          (fun _ ->
            let g = bucket_graph source base bucket in
            G.name g (Printf.sprintf "%s@b%d" name bucket);
            let plan, result, shard =
              match cluster with
              | None ->
                let result = Eng.compile device g in
                let plan =
                  match result.E.plan with
                  | Some p -> p
                  | None ->
                    invalid_arg
                      (Printf.sprintf
                         "Registry: engine %s produced no executable plan \
                          for %s"
                         Eng.name name)
                in
                (plan, result, None)
              | Some cl -> (
                (* Sharded serving: the bucket's dispatch plan is the shard
                   plan; its latency is the cost-model total (compute +
                   collectives). Buckets the strategy cannot partition
                   (e.g. bucket 1 on a 2-device data-parallel cluster)
                   fall back to the unsharded deterministic plan, which
                   bit-matches the sharded buckets row for row. *)
                match Shard.plan ?options ~strategy:parallel cl g with
                | shard ->
                  Shard.prepare shard;
                  ( Shard.baseline shard,
                    Shard.baseline_result shard,
                    Some shard )
                | exception Invalid_argument _ ->
                  let plan, result = Shard.compile_single ?options cl g in
                  Plan.prepare plan;
                  (plan, result, None))
            in
            (match shard with None -> Plan.prepare plan | Some _ -> ());
            let latency =
              match shard with
              | Some s -> (Shard.estimate s).Shard.total
              | None -> result.E.latency
            in
            Metrics.incr m_variants;
            Metrics.set_gauge
              (Metrics.gauge_labeled "serve.variant_latency_us"
                 [ ("model", name); ("bucket", string_of_int bucket) ])
              (latency *. 1e6);
            { bucket; graph = g; plan; latency; result; shard }))
      buckets
  in
  Metrics.incr m_models;
  let input_shapes = List.map (G.node_shape base) (G.input_ids base) in
  let sharding =
    List.find_map (fun v -> Option.map Shard.describe v.shard) variants
  in
  {
    name;
    engine = (match cluster with None -> Eng.name | Some _ -> Eng.name ^ "+shard");
    input_shapes;
    variants;
    max_inflight;
    sharding;
    backend;
  }

let variant_exn m bucket =
  match List.find_opt (fun v -> v.bucket = bucket) m.variants with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Registry: model %s has no bucket-%d variant" m.name
         bucket)

let latency m bucket = (variant_exn m bucket).latency
