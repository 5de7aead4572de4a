module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module Passes = Hidet_graph.Passes
module Compiled = Hidet_sched.Compiled
module MT = Hidet_sched.Matmul_template
module Tuner = Hidet_sched.Tuner
module Fuse = Hidet_fusion.Fuse
module Plan = Hidet_runtime.Plan
module Engine = Hidet_runtime.Engine
module GC = Hidet_runtime.Group_compiler
module Trace = Hidet_obs.Trace

type options = {
  lower_convs : bool;
  fuse : bool;
  allow_tensor_core : bool;
  allow_double_buffer : bool;
  deterministic_reduce : bool;
  fidelity : Hidet_gpu.Perf_model.fidelity;
  search : MT.config Hidet_sched.Search.t;
}

let default_options =
  {
    lower_convs = true;
    fuse = true;
    (* The paper's end-to-end evaluation runs fp32 (TF32 tensor cores are
       opt-in for cuDNN/cuBLAS and absent from the TVM baselines); the
       tensor-core path is exercised by the ablation benches and examples. *)
    allow_tensor_core = false;
    allow_double_buffer = true;
    deterministic_reduce = false;
    fidelity = `Analytic;
    search = Hidet_sched.Search.Exhaustive;
  }

module Cache = Hidet_sched.Schedule_cache

type tuning_stats = {
  mutable fresh_cost : float;  (* simulated seconds of fresh trials *)
  mutable cached_cost : float;  (* simulated seconds served by the cache *)
  mutable tuner_wall : float;  (* wall seconds inside the tuning service *)
  billed : (string, unit) Hashtbl.t;
      (* workload keys already accounted for in this compile: tuning cost is
         per unique workload (the paper's Fig 14 quantity), so a model
         reusing one shape across many layers pays for it once *)
  reshaped : (string, Compiled.t * Compiled.t) Hashtbl.t;
      (* matmul key -> (template kernel, its rank-2 reshape): a rank-2
         anchor whose template kernel is the one already reshaped gets the
         same reshaped kernel, so its group can reuse fused steps *)
}

(* Hidet's per-measured-candidate cost: candidate compilation and
   measurement run in parallel on the host CPU (the paper's "enumerating
   all candidates within one minute"), so each measured candidate costs a
   fraction of the sequential measure-one-at-a-time price the loop-oriented
   tuners pay. Candidates the template rejects are free (they never reach
   the device); candidates the matmul lower bound skips are billed as
   measured, since the paper's exhaustive tuner measures them; cache hits
   perform zero fresh trials. *)
let hidet_seconds_per_trial = Hidet_sched.Tuner.seconds_per_trial /. 4.

(* The tuning service: the process-global schedule cache in front of the
   parallel tuner. Every call site of one key (and [?instance]) gets the
   cache's one instantiated winner. *)
let tuned ~show ?search ?lower_bound ?instance options (stats : tuning_stats)
    ~device ~key ~candidates ~compile =
  let t0 = Unix.gettimeofday () in
  let r =
    Cache.tune ~seconds_per_trial:hidet_seconds_per_trial ~engine:"hidet" ~show
      ?search ~fidelity:options.fidelity ?lower_bound ?instance ~device
      ~workload:key ~candidates ~compile ()
  in
  stats.tuner_wall <- stats.tuner_wall +. (Unix.gettimeofday () -. t0);
  (if not (Hashtbl.mem stats.billed key) then (
     Hashtbl.add stats.billed key ();
     match r with
     | Some (_, _, Cache.Fresh st) ->
       stats.fresh_cost <- stats.fresh_cost +. st.Tuner.simulated_seconds
     | Some (_, _, Cache.Hit e) ->
       stats.cached_cost <- stats.cached_cost +. e.Cache.simulated_seconds
     | None -> ()));
  Option.map (fun (_, compiled, _) -> compiled) r

let restrict_space options space =
  List.filter
    (fun (c : MT.config) ->
      (options.allow_tensor_core || not c.MT.use_tensor_core)
      && (options.allow_double_buffer || c.MT.stages = 1)
      && ((not options.deterministic_reduce)
         (* Ascending-k accumulation only: no split-k partial sums, no MMA
            tiles, and one block_k so partial-tile zero padding is the
            same for every workload that shares a k extent. *)
         || (c.MT.split_k = 1 && c.MT.block_k = 8 && not c.MT.use_tensor_core)))
    space

(* --- anchor scheduling ------------------------------------------------------ *)

let rows_cols shape =
  let cols = List.nth shape (List.length shape - 1) in
  (List.fold_left ( * ) 1 shape / cols, cols)

(* Options that restrict the candidate space must be part of the workload
   signature, or a cache entry tuned under one restriction would answer for
   another. *)
let options_sig options =
  Printf.sprintf "tc%b_db%b%s" options.allow_tensor_core
    options.allow_double_buffer
    (if options.deterministic_reduce then "_det" else "")

(* The restricted matmul space of each (split-k class, options signature),
   filtered once per process: it depends on the shape only through the
   class. *)
let restricted : (int * string, MT.config list) Hashtbl.t = Hashtbl.create 8
let restricted_lock = Mutex.create ()

let matmul_space options ~m ~n =
  let key = (Hidet_sched.Space.split_k_class ~m ~n, options_sig options) in
  Mutex.protect restricted_lock (fun () ->
      match Hashtbl.find_opt restricted key with
      | Some space -> space
      | None ->
        let space =
          restrict_space options (Hidet_sched.Space.matmul_with_split_k ~m ~n)
        in
        Hashtbl.add restricted key space;
        space)

(* Deterministic mode pins the row/reduction templates to one block size:
   the combine-tree shape then depends only on the row length, never on
   how many rows the workload happens to have (i.e. the batch), so batch-
   sliced fragments reduce in exactly the single-device order. *)
let det_sig options = if options.deterministic_reduce then "_det" else ""

let schedule_matmul options device stats ~sa ~sb ~out_rank =
  let a_batched, batch_a, m, k =
    match sa with
    | [ m; k ] -> (false, 1, m, k)
    | [ b; m; k ] -> (true, b, m, k)
    | _ -> invalid_arg "hidet: matmul A rank"
  in
  let b_batched, batch_b, n =
    match sb with
    | [ _; n ] -> (false, 1, n)
    | [ b; _; n ] -> (true, b, n)
    | _ -> invalid_arg "hidet: matmul B rank"
  in
  let batch = max batch_a batch_b in
  let key =
    Printf.sprintf "matmul_%d_%b_%b_%d_%d_%d_%s" batch a_batched b_batched m n
      k (options_sig options)
  in
  let space = matmul_space options ~m ~n in
  (* Matmul spaces are the only ones big enough for guided search to pay;
     the row/reduce spaces (a handful of block sizes) stay exhaustive. *)
  let compiled =
    tuned ~show:MT.config_to_string ~search:options.search
      ~lower_bound:(MT.lower_bound device ~batch ~m ~n ~k)
      options stats ~device ~key ~candidates:space
      ~compile:(fun cfg -> MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg)
  in
  match compiled with
  | None -> failwith "hidet: no feasible matmul schedule"
  | Some c when out_rank = 2 -> (
    (* The template always produces [batch, m, n]; adapt rank-2 graphs. *)
    match Hashtbl.find_opt stats.reshaped key with
    | Some (src, r) when src == c -> r
    | _ ->
      let r = Fuse.fuse_epilogue c (Op.to_def (Op.Reshape [ m; n ]) [ [ 1; m; n ] ]) in
      Hashtbl.replace stats.reshaped key (c, r);
      r)
  | Some c -> c

let block_candidates = [ 64; 128; 256 ]

let schedule_anchor options device stats g (anchor : G.node) =
  let in_shapes = List.map (G.node_shape g) anchor.G.inputs in
  match (anchor.G.op, in_shapes) with
  | Op.Matmul, [ sa; sb ] ->
    schedule_matmul options device stats ~sa ~sb
      ~out_rank:(List.length anchor.G.shape)
  | Op.Softmax, [ s ] ->
    let rows, cols = rows_cols s in
    let candidates =
      if options.deterministic_reduce then [ 128 ] else block_candidates
    in
    Option.get
      (tuned ~show:(Printf.sprintf "block=%d") options stats ~device
         ~key:(Printf.sprintf "softmax_%d_%d%s" rows cols (det_sig options))
         ~candidates
         ~compile:(fun b ->
           Hidet_sched.Row_templates.softmax ~block_size:b ~rows ~cols ()))
  | Op.Layernorm { eps }, [ s; _; _ ] ->
    let rows, cols = rows_cols s in
    let candidates =
      if options.deterministic_reduce then [ 128 ] else block_candidates
    in
    (* [eps] is not part of the tuning key (it does not change the
       schedule's cost), but the kernel reads it. *)
    Option.get
      (tuned ~show:(Printf.sprintf "block=%d") ~instance:(Printf.sprintf "eps=%h" eps)
         options stats ~device
         ~key:(Printf.sprintf "layernorm_%d_%d%s" rows cols (det_sig options))
         ~candidates
         ~compile:(fun b ->
           Hidet_sched.Row_templates.layernorm ~block_size:b ~eps ~rows ~cols ()))
  | Op.Global_avg_pool, [ s ] ->
    let def = Op.to_def anchor.G.op [ s ] in
    let key =
      Printf.sprintf "gap_%s%s"
        (String.concat "x" (List.map string_of_int s))
        (det_sig options)
    in
    let candidates =
      if options.deterministic_reduce then
        List.filter
          (fun (c : Hidet_sched.Reduce_template.config) -> c.block_size = 128)
          Hidet_sched.Reduce_template.space
      else Hidet_sched.Reduce_template.space
    in
    let compiled =
      tuned options stats ~device ~key
        ~show:(fun (c : Hidet_sched.Reduce_template.config) ->
          Printf.sprintf "block=%d" c.block_size)
        ~candidates
        ~compile:(fun cfg ->
          Hidet_sched.Reduce_template.schedule ~config:cfg def)
    in
    (match compiled with
     | Some c -> c
     | None -> Hidet_sched.Rule_based.schedule def)
  | _ ->
    (* Direct convolutions, depthwise, pooling, leftover injective chains,
       concat: rule-based scheduling from the computation definition. *)
    Hidet_sched.Rule_based.schedule (Op.to_def anchor.G.op in_shapes)

(* --- the engine ---------------------------------------------------------------- *)

let new_stats () =
  {
    fresh_cost = 0.;
    cached_cost = 0.;
    tuner_wall = 0.;
    billed = Hashtbl.create 16;
    reshaped = Hashtbl.create 16;
  }

let config options device stats =
  {
    GC.schedule_anchor = (fun g n -> schedule_anchor options device stats g n);
    may_fuse_prologue = (fun _ -> options.fuse);
    may_fuse_epilogue = (fun _ -> options.fuse);
  }

let group_config ?(options = default_options) device =
  config options device (new_stats ())

let compile_plan ?(options = default_options) device g =
  Trace.span
    ~attrs:(fun () ->
      [ ("engine", "hidet"); ("model", G.get_name g); ("device", device.Hidet_gpu.Device.name) ])
    "compile_plan"
    (fun root ->
      let t0 = Unix.gettimeofday () in
      let g =
        if options.lower_convs then
          Trace.span "lower_conv_to_gemm" (fun _ -> Passes.lower_conv_to_gemm g)
        else g
      in
      let g = Trace.span "graph_optimize" (fun _ -> Passes.optimize g) in
      let stats = new_stats () in
      let plan = GC.compile_graph (config options device stats) g in
      let latency =
        Trace.span "estimate_latency" (fun _ ->
            Plan.latency ~fidelity:options.fidelity device plan)
      in
      Trace.add root "kernels" (string_of_int (Plan.kernel_count plan));
      Trace.add root "latency_us" (Printf.sprintf "%.3f" (latency *. 1e6));
      let result =
        {
          Engine.engine = "hidet";
          model = G.get_name g;
          latency;
          tuning_cost = stats.fresh_cost;
          cached_tuning_cost = stats.cached_cost;
          tuning_wall = stats.tuner_wall;
          compile_wall = Unix.gettimeofday () -. t0;
          kernel_count = Plan.kernel_count plan;
          plan = Some plan;
        }
      in
      (plan, result))

let name = "hidet"

let caps =
  {
    Engine.graph_opt = Engine.High;
    kernel_opt = Engine.High;
    tuning_time = Engine.High;
    engineering_effort = Engine.Medium;
  }

let compile device g = snd (compile_plan device g)
