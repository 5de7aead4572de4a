module Compiled = Hidet_sched.Compiled
module G = Hidet_graph.Graph
module Op = Hidet_graph.Op
module Passes = Hidet_graph.Passes
module Engine = Hidet_runtime.Engine
module Plan = Hidet_runtime.Plan
module GC = Hidet_runtime.Group_compiler
module Trace = Hidet_obs.Trace
module Metrics = Hidet_obs.Metrics
module Tuning_log = Hidet_obs.Tuning_log

type strategy = Random_search | Evolutionary

let strategy_engine = function
  | Random_search -> "autotvm"
  | Evolutionary -> "ansor"

let seconds_per_trial = Hidet_sched.Tuner.seconds_per_trial
let autotvm_trials = 1000
let ansor_trials = 800

(* --- space cardinality -------------------------------------------------------- *)

let prime_exponents n =
  let rec go n p acc =
    if n = 1 then acc
    else if p * p > n then (n, 1) :: acc (* remaining n is prime *)
    else if n mod p = 0 then begin
      let a = ref 0 and n = ref n in
      while !n mod p = 0 do
        incr a;
        n := !n / p
      done;
      go !n (p + 1) ((p, !a) :: acc)
    end
    else go n (p + 1) acc
  in
  if n <= 1 then [] else go n 2 []

let rec binom n k =
  if k = 0 || k = n then 1.
  else if k < 0 || k > n then 0.
  else binom (n - 1) (k - 1) *. float_of_int n /. float_of_int k

let ordered_factorizations n j =
  List.fold_left
    (fun acc (_, a) -> acc *. binom (a + j - 1) (j - 1))
    1. (prime_exponents n)

(* TVM-style template knobs: 4-way splits of the two output dims, a 2-way
   split of the reduction, plus shared-staging and unroll flags. *)
let matmul_space_size ~m ~n ~k =
  ordered_factorizations m 4 *. ordered_factorizations n 4
  *. ordered_factorizations k 2 *. 4.

let conv_out h k stride pad = ((h + (2 * pad) - k) / stride) + 1

let conv_space_size ~x_shape ~w_shape ~stride ~pad_h ~pad_w =
  match (x_shape, w_shape) with
  | [ _; c; h; w ], [ oc; _; kh; kw ] ->
    let p = conv_out h kh stride pad_h * conv_out w kw stride pad_w in
    matmul_space_size ~m:oc ~n:p ~k:(c * kh * kw)
  | _ -> invalid_arg "conv_space_size"

(* --- samplers ------------------------------------------------------------------- *)

let divisors n = List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))

(* Random ordered factorization of [n] into [j] factors: distribute each
   prime's exponent units over the j positions. *)
let random_factorization rng n j =
  let parts = Array.make j 1 in
  List.iter
    (fun (p, a) ->
      for _ = 1 to a do
        let slot = Random.State.int rng j in
        parts.(slot) <- parts.(slot) * p
      done)
    (prime_exponents n);
  parts

let sample_gemm_sched rng ~m ~n ~k =
  let fm = random_factorization rng m 4 in
  let fn = random_factorization rng n 4 in
  let fk = random_factorization rng k 2 in
  (* positions: grid / vthread / thread / register. Block tile = vthread *
     thread * register; per-thread tile = vthread * register. *)
  {
    Loop_sched.tile_m = fm.(1) * fm.(2) * fm.(3);
    tile_n = fn.(1) * fn.(2) * fn.(3);
    tile_k = fk.(1);
    thread_m = fm.(1) * fm.(3);
    thread_n = fn.(1) * fn.(3);
    use_shared = Random.State.int rng 5 > 0;
    unroll = Random.State.bool rng;
  }

let sample_dw_sched rng ~p =
  let fp = random_factorization rng p 3 in
  {
    Loop_sched.dw_tile_p = fp.(1) * fp.(2);
    dw_thread_p = fp.(2);
    dw_unroll = Random.State.bool rng;
  }

(* --- tuners ---------------------------------------------------------------------- *)

type tuned = {
  compiled : Compiled.t;
  latency : float;
  trials : int;
  simulated_seconds : float;
  wall_seconds : float;
}

(* The real tuners steer sampling with a learned cost model; model that by
   rejection-sampling implausible candidates (degenerate thread counts or
   register tiles) a few times before accepting whatever comes. *)
let plausible_gemm (s : Loop_sched.sched) =
  let threads = s.Loop_sched.tile_m / s.Loop_sched.thread_m
                * (s.Loop_sched.tile_n / s.Loop_sched.thread_n) in
  threads >= 64 && threads <= 512
  && s.Loop_sched.thread_m * s.Loop_sched.thread_n >= 2
  && s.Loop_sched.thread_m * s.Loop_sched.thread_n <= 64
  && s.Loop_sched.tile_k <= 64 && s.Loop_sched.use_shared

let guided_sample ~plausible sample rng =
  let rec go n =
    let s = sample rng in
    if n = 0 || plausible s then s else go (n - 1)
  in
  go 12

(* Counted separately from the hidet tuner's ["tuner.trials"] so the two
   families remain comparable side by side in one metrics dump. *)
let m_trials = Metrics.counter "baseline.trials"
let m_rejected = Metrics.counter "baseline.rejected"

let classify device compile sched =
  match compile sched with
  | exception Invalid_argument _ ->
    Metrics.incr m_rejected;
    (`Rejected, infinity, None)
  | compiled ->
    Metrics.incr m_trials;
    let lat = Compiled.latency device compiled in
    if lat < infinity then (`Measured, lat, Some (compiled, lat))
    else (`Infeasible, lat, None)

let measure device compile sched =
  let _, _, r = classify device compile sched in
  r

let generic_tune ?(key = "") ?(show = fun _ -> "") ~strategy ~budget ~device
    ~seed ~space_size ~sample ~mutate ~compile () =
  let t0 = Unix.gettimeofday () in
  let engine = strategy_engine strategy in
  let rng = Random.State.make [| seed; 0x5eed |] in
  (* Real tuners measure distinct configurations; a space smaller than the
     budget is exhausted early (the paper's AutoTVM-on-Bert case). *)
  let budget = min budget (max 1 (int_of_float (Float.min space_size 1e9))) in
  let sp =
    Trace.enter
      ~attrs:
        [
          ("engine", engine);
          ("workload", key);
          ("budget", string_of_int budget);
        ]
      "tune"
  in
  let best = ref None in
  let consider_lat sched lat =
    match lat with
    | None -> ()
    | Some lat -> (
      match !best with
      | Some (_, b) when b <= lat -> ()
      | _ -> best := Some (sched, lat))
  in
  let measure_lat sched = Option.map snd (measure device compile sched) in
  (* [i] is the trial number; a span + tuning-log record per candidate,
     same shape as the hidet tuner's, so traces and logs line up across
     engines. The unobserved path is a bare compile+measure. *)
  let observed = Trace.enabled () || Tuning_log.enabled () in
  let measure_idx i sched =
    if not observed then measure_lat sched
    else begin
      let csp = Trace.enter "trial" in
      let status, lat, r = classify device compile sched in
      let status_str =
        match status with
        | `Rejected -> "rejected"
        | `Infeasible -> "infeasible"
        | `Measured -> "measured"
      in
      if Trace.enabled () then begin
        Trace.add csp "workload" key;
        Trace.add csp "index" (string_of_int i);
        Trace.add csp "config" (show sched);
        Trace.add csp "outcome" status_str;
        if status = `Measured then
          Trace.add csp "latency_us" (Printf.sprintf "%.3f" (lat *. 1e6))
      end;
      Trace.exit csp;
      if Tuning_log.enabled () then
        Tuning_log.record
          {
            Tuning_log.engine;
            workload = key;
            index = i;
            config = show sched;
            outcome =
              (match status with
              | `Rejected -> Tuning_log.Rejected
              | `Infeasible -> Tuning_log.Infeasible
              | `Measured -> Tuning_log.Measured);
            latency = lat;
            (* Input-centric tuners sample their space exhaustively within
               a budget; there is no guided proposer to attribute. *)
            proposer = Tuning_log.Exhaustive;
          };
      Option.map snd r
    end
  in
  (* Measure a pre-sampled batch across domains (AutoTVM's parallel
     measurement workers). Only wall clock improves: the *simulated*
     sequential cost model — budget x seconds_per_trial — is unchanged,
     and the batch is merged in sampling order with ties kept first, so the
     selected schedule is identical to the sequential path's. *)
  let measure_batch scheds =
    let lats =
      Hidet_sched.Parallel.map
        (fun (i, s) -> measure_idx i s)
        (Array.of_list (List.mapi (fun i s -> (i, s)) scheds))
    in
    List.iteri (fun i sched -> consider_lat sched lats.(i)) scheds
  in
  (match strategy with
  | Random_search -> measure_batch (List.init budget (fun _ -> sample rng))
  | Evolutionary ->
    let pop_size = min 40 budget in
    let population = ref (List.init pop_size (fun _ -> sample rng)) in
    measure_batch !population;
    (* The mutation loop is inherently sequential: each parent choice
       depends on the best-so-far after the previous measurement. *)
    let used = ref pop_size in
    while !used < budget do
      let parent =
        match !best with
        | Some (s, _) when Random.State.int rng 3 > 0 -> s
        | _ -> (
          match !population with
          | p :: _ when Random.State.bool rng -> p
          | _ -> sample rng)
      in
      let child = mutate rng parent in
      consider_lat child (measure_idx !used child);
      population := child :: (match !population with _ :: t -> t | [] -> []);
      incr used
    done);
  Trace.add sp "trials" (string_of_int budget);
  (match !best with
  | Some (_, lat) ->
    Trace.add sp "best_latency_us" (Printf.sprintf "%.3f" (lat *. 1e6))
  | None -> Trace.add sp "outcome" "no feasible candidate");
  Trace.exit sp;
  Option.map
    (fun (sched, lat) ->
      {
        (* Re-instantiate the winner in the calling domain. *)
        compiled = compile sched;
        latency = lat;
        trials = budget;
        simulated_seconds = float_of_int budget *. seconds_per_trial;
        wall_seconds = Unix.gettimeofday () -. t0;
      })
    !best

let mutate_gemm ~m ~n ~k rng (s : Loop_sched.sched) =
  match Random.State.int rng 4 with
  | 0 ->
    let f = random_factorization rng m 4 in
    { s with Loop_sched.tile_m = f.(1) * f.(2) * f.(3); thread_m = f.(1) * f.(3) }
  | 1 ->
    let f = random_factorization rng n 4 in
    { s with Loop_sched.tile_n = f.(1) * f.(2) * f.(3); thread_n = f.(1) * f.(3) }
  | 2 ->
    let ds = divisors (min k 4096) in
    let valid = List.filter (fun d -> k mod d = 0) ds in
    { s with Loop_sched.tile_k = List.nth valid (Random.State.int rng (List.length valid)) }
  | _ -> { s with Loop_sched.unroll = not s.Loop_sched.unroll }

let show_gemm (s : Loop_sched.sched) =
  Printf.sprintf "tile=%dx%dx%d thread=%dx%d shared=%b unroll=%b"
    s.Loop_sched.tile_m s.Loop_sched.tile_n s.Loop_sched.tile_k
    s.Loop_sched.thread_m s.Loop_sched.thread_n s.Loop_sched.use_shared
    s.Loop_sched.unroll

let show_dw (s : Loop_sched.dw_sched) =
  Printf.sprintf "tile_p=%d thread_p=%d unroll=%b" s.Loop_sched.dw_tile_p
    s.Loop_sched.dw_thread_p s.Loop_sched.dw_unroll

let tune_gemm ?key ~strategy ~trials ~device ~seed ~m ~n ~k ~compile () =
  generic_tune ?key ~show:show_gemm ~strategy ~budget:trials ~device ~seed
    ~space_size:(matmul_space_size ~m ~n ~k)
    ~sample:
      (guided_sample ~plausible:plausible_gemm (fun rng ->
           sample_gemm_sched rng ~m ~n ~k))
    ~mutate:(mutate_gemm ~m ~n ~k) ~compile ()

let tune_depthwise ?key ~strategy ~trials ~device ~seed ~p ~compile () =
  generic_tune ?key ~show:show_dw ~strategy ~budget:trials ~device ~seed
    ~space_size:(ordered_factorizations p 3 *. 2.)
    ~sample:(fun rng -> sample_dw_sched rng ~p)
    ~mutate:(fun rng _ -> sample_dw_sched rng ~p)
    ~compile ()

(* --- engines ----------------------------------------------------------------------- *)

type tuning_stats = { mutable cost : float; mutable wall : float }

let schedule_anchor ~strategy ~trials ~device ~cache ~stats g (anchor : G.node) =
  let in_shapes = List.map (G.node_shape g) anchor.G.inputs in
  let cached key tune fallback =
    match Hashtbl.find_opt cache key with
    | Some maker -> (maker () : Compiled.t)
    | None ->
      let maker =
        match tune () with
        | Some t ->
          stats.cost <- stats.cost +. t.simulated_seconds;
          stats.wall <- stats.wall +. t.wall_seconds;
          (* Re-instantiating would lose the tuned schedule: keep it. *)
          fun () -> t.compiled
        | None -> fallback
      in
      Hashtbl.replace cache key maker;
      maker ()
  in
  let seed = Hashtbl.hash (Op.name anchor.G.op, in_shapes) in
  match (anchor.G.op, in_shapes) with
  | Op.Matmul, [ sa; sb ] ->
    let a_batched, batch_a, m, k =
      match sa with
      | [ m; k ] -> (false, 1, m, k)
      | [ b; m; k ] -> (true, b, m, k)
      | _ -> invalid_arg "loop engine: matmul A rank"
    in
    let b_batched, batch_b, n =
      match sb with
      | [ _; n ] -> (false, 1, n)
      | [ b; _; n ] -> (true, b, n)
      | _ -> invalid_arg "loop engine: matmul B rank"
    in
    let batch = max batch_a batch_b in
    let key = Printf.sprintf "mm_%d_%d_%d_%d" batch m n k in
    let c =
      cached key
        (fun () ->
          tune_gemm ~key ~strategy ~trials ~device ~seed ~m ~n ~k
            ~compile:(fun s ->
              Loop_sched.gemm ~batch ~a_batched ~b_batched ~m ~n ~k s)
            ())
        (fun () ->
          Hidet_sched.Rule_based.schedule (Op.to_def anchor.G.op in_shapes))
    in
    (* The template emits [batch, m, n]; adapt when the graph node is
       rank-2 (the rule-based fallback already matches the graph shape). *)
    if c.Compiled.out.Hidet_ir.Buffer.dims = [ 1; m; n ]
       && List.length anchor.G.shape = 2
    then
      Hidet_fusion.Fuse.fuse_epilogue c
        (Op.to_def (Op.Reshape [ m; n ]) [ [ 1; m; n ] ])
    else c
  | Op.Conv2d { stride; pad_h; pad_w }, [ x_shape; w_shape ] ->
    let m, n, k =
      match (x_shape, w_shape) with
      | [ _; c; h; w ], [ oc; _; kh; kw ] ->
        ( oc,
          conv_out h kh stride pad_h * conv_out w kw stride pad_w,
          c * kh * kw )
      | _ -> invalid_arg "loop engine: conv shapes"
    in
    let key =
      Printf.sprintf "conv_%s_%s_%d_%d_%d"
        (String.concat "x" (List.map string_of_int x_shape))
        (String.concat "x" (List.map string_of_int w_shape))
        stride pad_h pad_w
    in
    cached key
      (fun () ->
        tune_gemm ~key ~strategy ~trials ~device ~seed ~m ~n ~k
          ~compile:(fun s ->
            Loop_sched.conv2d ~x_shape ~w_shape ~stride ~pad_h ~pad_w s)
          ())
      (fun () -> Hidet_sched.Rule_based.schedule (Op.to_def anchor.G.op in_shapes))
  | Op.Depthwise_conv2d { stride; padding }, [ x_shape; w_shape ] ->
    let p =
      match (x_shape, w_shape) with
      | [ _; _; h; w ], [ _; _; kh; kw ] ->
        conv_out h kh stride padding * conv_out w kw stride padding
      | _ -> invalid_arg "loop engine: dw shapes"
    in
    let key =
      Printf.sprintf "dw_%s_%d"
        (String.concat "x" (List.map string_of_int x_shape))
        stride
    in
    cached key
      (fun () ->
        tune_depthwise ~key ~strategy ~trials ~device ~seed ~p
          ~compile:(fun s ->
            Loop_sched.depthwise ~x_shape ~w_shape ~stride ~padding s)
          ())
      (fun () -> Hidet_sched.Rule_based.schedule (Op.to_def anchor.G.op in_shapes))
  | Op.Softmax, [ s ] ->
    let cols = List.nth s (List.length s - 1) in
    let rows = List.fold_left ( * ) 1 s / cols in
    Hidet_sched.Row_templates.softmax ~rows ~cols ()
  | Op.Layernorm { eps }, [ s; _; _ ] ->
    let cols = List.nth s (List.length s - 1) in
    let rows = List.fold_left ( * ) 1 s / cols in
    Hidet_sched.Row_templates.layernorm ~eps ~rows ~cols ()
  | Op.Global_avg_pool, [ s ] ->
    Hidet_sched.Reduce_template.schedule (Op.to_def anchor.G.op [ s ])
  | _ -> Hidet_sched.Rule_based.schedule (Op.to_def anchor.G.op in_shapes)

let compile_with ~name ~strategy ~trials device g =
  Trace.span
    ~attrs:(fun () -> [ ("engine", name); ("model", G.get_name g) ])
    "compile_plan"
  @@ fun _root ->
  let t0 = Unix.gettimeofday () in
  let g = Trace.span "graph_optimize" (fun _ -> Passes.optimize g) in
  let cache = Hashtbl.create 32 in
  let stats = { cost = 0.; wall = 0. } in
  let gc_config =
    {
      GC.schedule_anchor =
        (fun g n -> schedule_anchor ~strategy ~trials ~device ~cache ~stats g n);
      may_fuse_prologue = (fun _ -> true);
      may_fuse_epilogue = (fun _ -> true);
    }
  in
  let plan = GC.compile_graph gc_config g in
  {
    Engine.engine = name;
    model = G.get_name g;
    latency = Plan.latency device plan;
    tuning_cost = stats.cost;
    cached_tuning_cost = 0.;
    tuning_wall = stats.wall;
    compile_wall = Unix.gettimeofday () -. t0;
    kernel_count = Plan.kernel_count plan;
    plan = Some plan;
  }

module Autotvm = struct
  let name = "autotvm"

  let caps =
    {
      Engine.graph_opt = Engine.High;
      kernel_opt = Engine.Medium;
      tuning_time = Engine.Low;
      engineering_effort = Engine.Medium;
    }

  let compile device g =
    compile_with ~name ~strategy:Random_search ~trials:autotvm_trials device g
end

module Ansor = struct
  let name = "ansor"

  let caps =
    {
      Engine.graph_opt = Engine.High;
      kernel_opt = Engine.Low;
      tuning_time = Engine.Low;
      engineering_effort = Engine.High;
    }

  let compile device g =
    compile_with ~name ~strategy:Evolutionary ~trials:ansor_trials device g
end
