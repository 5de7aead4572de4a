(* Tests for the Hidet scheduling layer: the matmul template across the
   configuration space (correctness on awkward sizes, double buffering,
   split-k, tensor cores, batching), the reduce and row templates, the
   hardware-centric space and the exhaustive tuner. *)

module MT = Hidet_sched.Matmul_template
module Space = Hidet_sched.Space
module Tu = Hidet_sched.Tuner
module RT = Hidet_sched.Row_templates
module Red = Hidet_sched.Reduce_template
module RB = Hidet_sched.Rule_based
module C = Hidet_sched.Compiled
module Def = Hidet_compute.Def
module T = Hidet_tensor.Tensor
module Pipeline = Hidet_gpu.Pipeline

let dev = Hidet_gpu.Device.rtx3090

(* Two domains race the split-k space memo's first call. This runs when the
   test program starts, before any other code in it asks for a space. *)
let raced_first_calls =
  let go = Atomic.make false in
  let first_call () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Space.matmul_with_split_k ~m:64 ~n:64
  in
  let domains = List.init 2 (fun _ -> Domain.spawn first_call) in
  Atomic.set go true;
  List.map Domain.join domains

let matmul_ok ?(batch = 1) ?(a_batched = true) ?(b_batched = false) ~m ~n ~k cfg =
  let a = T.rand ~seed:1 (if a_batched then [ batch; m; k ] else [ m; k ]) in
  let b = T.rand ~seed:2 (if b_batched then [ batch; k; n ] else [ k; n ]) in
  let a_full = if a_batched then a else T.reshape a [ 1; m; k ] in
  let expect =
    if batch = 1 && not a_batched then
      T.reshape (T.matmul (T.reshape a_full [ m; k ]) b) [ 1; m; n ]
    else T.matmul a b
  in
  let compiled = MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg in
  C.verify compiled;
  let got = C.run compiled [ a; b ] in
  T.allclose ~rtol:1e-3 ~atol:1e-4 expect (T.reshape got (T.shape expect))

let base = MT.default_config

let test_matmul_basic () =
  Alcotest.(check bool) "64^3 db" true (matmul_ok ~m:64 ~n:64 ~k:64 base)

let test_matmul_no_db () =
  Alcotest.(check bool) "no pipeline" true
    (matmul_ok ~m:64 ~n:64 ~k:64 { base with MT.stages = 1 });
  Alcotest.(check bool) "3-stage pipeline" true
    (matmul_ok ~m:64 ~n:64 ~k:96 { base with MT.stages = 3 });
  Alcotest.(check bool) "3-stage odd sizes" true
    (matmul_ok ~m:45 ~n:70 ~k:59 { base with MT.stages = 3 });
  Alcotest.(check bool) "4-stage pipeline" true
    (matmul_ok ~m:64 ~n:64 ~k:128 { base with MT.stages = 4 });
  Alcotest.(check bool) "4-stage odd sizes" true
    (matmul_ok ~m:45 ~n:70 ~k:131 { base with MT.stages = 4 });
  Alcotest.(check bool) "swizzled (gm mod 4 = 0)" true
    (matmul_ok ~m:256 ~n:64 ~k:32 { base with MT.swizzle = true });
  Alcotest.(check bool) "swizzled (column-major fallback)" true
    (matmul_ok ~m:70 ~n:64 ~k:32 { base with MT.swizzle = true });
  Alcotest.(check bool) "swizzled 4-stage split-k" true
    (matmul_ok ~m:128 ~n:96 ~k:100
       { base with MT.swizzle = true; stages = 4; split_k = 2 })

let test_matmul_odd_sizes () =
  (* Nothing divides: exercises full predication. *)
  Alcotest.(check bool) "70x50x33" true (matmul_ok ~m:70 ~n:50 ~k:33 base);
  Alcotest.(check bool) "prime 37x41x29" true
    (matmul_ok ~m:37 ~n:41 ~k:29 { base with MT.stages = 1 });
  Alcotest.(check bool) "1x1000x32 (classifier shape)" true
    (matmul_ok ~m:1 ~n:100 ~k:32 { base with MT.block_m = 16; block_n = 64; warp_m = 16; warp_n = 32 })

let test_matmul_split_k () =
  Alcotest.(check bool) "sk2" true
    (matmul_ok ~m:48 ~n:48 ~k:96 { base with MT.split_k = 2 });
  Alcotest.(check bool) "sk4 odd" true
    (matmul_ok ~m:33 ~n:47 ~k:100 { base with MT.split_k = 4 });
  (* split_k larger than the number of k tiles: some blocks do zero trips. *)
  Alcotest.(check bool) "sk8 small k" true
    (matmul_ok ~m:32 ~n:32 ~k:24
       { base with MT.split_k = 8; block_m = 32; block_n = 32; warp_m = 16; warp_n = 16 })

let test_matmul_tensor_core () =
  Alcotest.(check bool) "tc" true
    (matmul_ok ~m:64 ~n:64 ~k:32
       { base with MT.use_tensor_core = true; warp_m = 32; warp_n = 32; block_k = 16 });
  Alcotest.(check bool) "tc odd" true
    (matmul_ok ~m:50 ~n:70 ~k:40
       {
         base with
         MT.use_tensor_core = true;
         block_m = 32;
         block_n = 32;
         warp_m = 16;
         warp_n = 16;
         block_k = 8;
       })

let test_matmul_batched () =
  let cfg = { base with MT.block_m = 32; block_n = 32; warp_m = 16; warp_n = 16 } in
  Alcotest.(check bool) "bmm" true
    (matmul_ok ~batch:3 ~b_batched:true ~m:24 ~n:24 ~k:24 cfg);
  Alcotest.(check bool) "shared weights" true
    (matmul_ok ~batch:2 ~a_batched:false ~b_batched:true ~m:16 ~n:40 ~k:24 cfg)

let test_config_check () =
  let bad cfg = Result.is_error (MT.check cfg) in
  Alcotest.(check bool) "warp not dividing" true
    (bad { base with MT.warp_m = 48 });
  Alcotest.(check bool) "tc warp not 16x" true
    (bad { base with MT.use_tensor_core = true; warp_m = 24 });
  Alcotest.(check bool) "split_k range" true (bad { base with MT.split_k = 0 });
  Alcotest.(check bool) "register tile too large" true
    (bad { base with MT.block_m = 128; block_n = 256; warp_m = 128; warp_n = 256 })

let test_double_buffer_structure () =
  (* The pipelined template must exhibit the structural overlap pattern; the
     non-pipelined one must not. *)
  let k cfg = List.hd (MT.compile ~m:128 ~n:128 ~k:128 cfg).C.kernels in
  Alcotest.(check int) "db kernel stages" 2
    (Pipeline.effective_stages (k base));
  Alcotest.(check int) "plain kernel stages" 1
    (Pipeline.effective_stages (k { base with MT.stages = 1 }))

let test_db_faster_in_model () =
  let lat cfg = C.latency dev (MT.compile ~m:1024 ~n:1024 ~k:1024 cfg) in
  Alcotest.(check bool) "double buffering wins" true
    (lat base < lat { base with MT.stages = 1 })

let test_swizzle_faster_in_model () =
  (* On a bandwidth-bound shape (large m and n, small k) the panelized
     block swizzle keeps a launch window of blocks on a few operand
     panels, so the L2-reuse term must make it strictly faster than the
     identical row-major schedule; structurally both kernels match. *)
  let lat cfg = C.latency dev (MT.compile ~m:2048 ~n:2048 ~k:64 cfg) in
  Alcotest.(check bool) "swizzle wins on bandwidth-bound shape" true
    (lat { base with MT.swizzle = true } < lat base);
  let deep = { base with MT.stages = 4 } in
  Alcotest.(check bool) "4-stage beats 2-stage in the model" true
    (C.latency dev (MT.compile ~m:1024 ~n:1024 ~k:4096 deep)
    < C.latency dev (MT.compile ~m:1024 ~n:1024 ~k:4096 base))

(* --- hardware-centric space --------------------------------------------------- *)

let test_space_size () =
  let size = Space.size () in
  Alcotest.(check bool)
    (Printf.sprintf "space size %d within [180, 500]" size)
    true
    (size >= 180 && size <= 500)

let test_space_all_valid () =
  List.iter
    (fun cfg ->
      match MT.check cfg with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid config %s: %s" (MT.config_to_string cfg) e)
    (Space.matmul ())

let test_space_input_agnostic () =
  (* The base space does not depend on the problem size (only the split-k
     extension looks at the grid). *)
  Alcotest.(check int) "same size"
    (List.length (Space.matmul ()))
    (List.length (Space.matmul ()))

let test_space_split_k_extension () =
  let small = Space.matmul_with_split_k ~m:64 ~n:49 in
  let large = Space.matmul_with_split_k ~m:4096 ~n:4096 in
  Alcotest.(check bool) "small grids get split-k variants" true
    (List.length small > List.length large);
  Alcotest.(check bool) "large grids keep the base space" true
    (List.length large = List.length (Space.matmul ()))

(* The memoized split-k spaces against a fresh build of each factor class,
   element for element and in order: the schedule cache stores indices. *)
let test_space_split_k_memo () =
  let fresh sks =
    let base = Space.matmul () in
    Space.dedup
      (base
      @ List.concat_map
          (fun sk ->
            List.filter_map
              (fun (c : MT.config) ->
                if c.MT.stages >= 2 && not c.MT.swizzle then
                  Some { c with MT.split_k = sk }
                else None)
              base)
          sks)
  in
  List.iter
    (fun (m, n, sks) ->
      let what = Printf.sprintf "%dx%d" m n in
      let got = Space.matmul_with_split_k ~m ~n and want = fresh sks in
      Alcotest.(check (list string))
        (what ^ " equals a fresh build")
        (List.map MT.config_to_string want)
        (List.map MT.config_to_string got);
      Alcotest.(check bool) (what ^ " structurally equal") true (got = want);
      Alcotest.(check bool) (what ^ " built once") true
        (got == Space.matmul_with_split_k ~m ~n))
    [ (4096, 4096, []); (1024, 512, [ 2; 4 ]); (64, 64, [ 2; 4; 8 ]) ];
  Alcotest.(check bool) "no factors: the base space itself" true
    (Space.matmul_with_split_k ~m:4096 ~n:4096 == Space.matmul ())

let test_space_memo_race () =
  match raced_first_calls with
  | [ a; b ] ->
    Alcotest.(check bool) "both domains got one list" true (a == b);
    Alcotest.(check bool) "later calls get it too" true
      (a == Space.matmul_with_split_k ~m:64 ~n:64)
  | _ -> Alcotest.fail "expected two results"

(* A schedule cache filled by a cold compile of the zoo before the split-k
   spaces were memoized serves every entry: no stale entry, no miss, no new
   entry. *)
let test_space_serves_older_cache () =
  let module Cache = Hidet_sched.Schedule_cache in
  let module Trace = Hidet_obs.Trace in
  Cache.clear ();
  let loaded =
    match Cache.load "golden/zoo_schedule.cache" with
    | Ok n -> n
    | Error msg -> Alcotest.failf "load: %s" msg
  in
  let (), evs =
    Trace.with_collector (fun () ->
        List.iter
          (fun (name, _) ->
            ignore
              (Hidet.Hidet_engine.compile_plan dev
                 (Hidet_models.Models.by_name name)))
          Hidet_models.Models.all)
  in
  let served =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Trace.Instant { name = "schedule_cache.hit"; attrs; _ } ->
             List.assoc_opt "workload" attrs
           | _ -> None)
         evs)
  in
  let stale = Cache.stale () and misses = Cache.misses () and size = Cache.size () in
  let keys = Cache.keys_for_device dev.Hidet_gpu.Device.name in
  Cache.clear ();
  Alcotest.(check int) "stale entries" 0 stale;
  Alcotest.(check int) "misses" 0 misses;
  Alcotest.(check int) "no new entries" loaded size;
  Alcotest.(check (list string)) "every entry served" keys served

let test_space_dedup () =
  (* Both enumerations are duplicate-free: the cache stores winner indices,
     so a duplicate would make two indices name the same schedule. *)
  let distinct cfgs =
    let seen = Hashtbl.create 256 in
    List.iter (fun c -> Hashtbl.replace seen (MT.config_to_string c) ()) cfgs;
    Hashtbl.length seen
  in
  let base = Space.matmul () in
  Alcotest.(check int) "matmul () is duplicate-free" (List.length base)
    (distinct base);
  let sk = Space.matmul_with_split_k ~m:64 ~n:49 in
  Alcotest.(check int) "split-k extension is duplicate-free"
    (List.length sk) (distinct sk);
  Alcotest.(check int) "dedup is idempotent" (List.length base)
    (List.length (Space.dedup base))

let test_space_widened () =
  (* The widened space actually contains the new dimensions. *)
  let cfgs = Space.matmul () in
  let has p = List.exists p cfgs in
  Alcotest.(check bool) "has 3-stage schedules" true
    (has (fun c -> c.MT.stages = 3));
  Alcotest.(check bool) "has 4-stage schedules" true
    (has (fun c -> c.MT.stages = 4));
  Alcotest.(check bool) "has swizzled schedules" true
    (has (fun c -> c.MT.swizzle));
  Alcotest.(check bool) "split-k enters via the extension" true
    (List.exists
       (fun c -> c.MT.split_k > 1)
       (Space.matmul_with_split_k ~m:64 ~n:49))

let space_sampled_cases =
  (* Every 13th config of the space, compiled at an awkward size, must be
     numerically exact. *)
  List.filteri (fun i _ -> i mod 13 = 0) (Space.matmul ())
  |> List.map (fun cfg ->
         Alcotest.test_case (MT.config_to_string cfg) `Quick (fun () ->
             Alcotest.(check bool) "exact at 37x53x41" true
               (matmul_ok ~m:37 ~n:53 ~k:41 cfg)))

(* --- tuner ---------------------------------------------------------------------- *)

let test_tuner_picks_minimum () =
  let candidates = [ 1; 2; 3; 4 ] in
  (* Fake compile: sequential work grows with |c - 3|, so 3 is fastest. *)
  let compile c =
    let k = 64 * (1 + abs (c - 3)) in
    MT.compile ~m:32 ~n:32 ~k
      { base with MT.block_m = 32; block_n = 32; warp_m = 16; warp_n = 16 }
  in
  match Tu.tune ~device:dev ~candidates ~compile () with
  | Some (best, _, st) ->
    Alcotest.(check int) "best candidate" 3 best;
    Alcotest.(check int) "best index" 2 st.Tu.best_index;
    Alcotest.(check int) "all trials counted" 4 st.Tu.trials;
    Alcotest.(check int) "none rejected" 0 st.Tu.rejected;
    Alcotest.(check (float 1e-6)) "simulated cost" (4. *. Tu.seconds_per_trial)
      st.Tu.simulated_seconds
  | None -> Alcotest.fail "tuner found nothing"

let test_tuner_skips_invalid () =
  (* Candidates the template rejects never reach the device: they are
     reported as [rejected] and cost no simulated measurement seconds. *)
  let candidates = [ `Bad; `Good; `Bad2 ] in
  let compile = function
    | `Bad | `Bad2 -> invalid_arg "bad"
    | `Good -> MT.compile ~m:64 ~n:64 ~k:64 base
  in
  match Tu.tune ~device:dev ~candidates ~compile () with
  | Some (best, _, st) ->
    Alcotest.(check bool) "picked good" true (best = `Good);
    Alcotest.(check int) "only measured billed" 1 st.Tu.trials;
    Alcotest.(check int) "rejected reported" 2 st.Tu.rejected;
    Alcotest.(check (float 1e-6)) "rejected cost nothing" Tu.seconds_per_trial
      st.Tu.simulated_seconds
  | None -> Alcotest.fail "tuner found nothing"

let test_tune_matmul_end_to_end () =
  match Tu.tune_matmul ~device:dev ~m:256 ~n:256 ~k:256 () with
  | Some (cfg, compiled, st) ->
    Alcotest.(check bool) "feasible" true (C.feasible dev compiled);
    Alcotest.(check bool) "latency positive" true (st.Tu.best_latency > 0.);
    Alcotest.(check bool) "config valid" true (Result.is_ok (MT.check cfg))
  | None -> Alcotest.fail "no schedule for 256^3"

(* --- guided search -------------------------------------------------------------- *)

module Se = Hidet_sched.Search
module Tlog = Hidet_obs.Tuning_log

(* Drive the guided run protocol directly against a synthetic, deterministic
   latency landscape over the real widened space — no compilation, so the
   qcheck property can afford many seeds. *)
let guided_candidates = Array.of_list (Space.matmul_with_split_k ~m:64 ~n:49)

let synthetic_latency (c : MT.config) =
  let l x = log (float_of_int (max 1 x)) in
  (* a couple of infeasible pockets so observe sees infinities too *)
  if c.MT.block_m = 128 && c.MT.split_k > 1 then infinity
  else
    l c.MT.block_m +. (2. *. l c.MT.block_n) +. (3. *. l c.MT.block_k)
    +. l c.MT.warp_m +. (2. *. l c.MT.warp_n)
    +. float_of_int c.MT.stages +. (2. *. l c.MT.split_k)
    +. (if c.MT.use_tensor_core then 0. else 1.)
    +. if c.MT.swizzle then 0. else 0.5

let drive_guided ~seed =
  let t = Se.guided_matmul ~params:{ Se.default_guided_params with Se.seed } () in
  match Se.start t ~candidates:guided_candidates with
  | None -> Alcotest.fail "guided start returned no run"
  | Some run ->
    let trail = ref [] in
    let continue = ref true in
    while !continue do
      match Se.next_batch run with
      | [] -> continue := false
      | batch ->
        List.iter
          (fun (i, p) ->
            let lat = synthetic_latency guided_candidates.(i) in
            trail := (i, Tlog.proposer_to_string p, lat) :: !trail;
            Se.observe run ~index:i ~latency:lat)
          batch
    done;
    List.rev !trail

let prop_guided_deterministic =
  QCheck.Test.make ~count:25
    ~name:"guided search: same seed => identical trial sequence and winner"
    QCheck.small_nat (fun seed ->
      let a = drive_guided ~seed and b = drive_guided ~seed in
      let n = Array.length guided_candidates in
      let budget =
        max Se.default_guided_params.Se.population
          (int_of_float
             (Se.default_guided_params.Se.budget_fraction *. float_of_int n))
      in
      let indices = List.map (fun (i, _, _) -> i) a in
      let distinct = List.sort_uniq compare indices in
      a = b
      && List.length a <= budget
      && List.length distinct = List.length indices
      && List.for_all (fun i -> i >= 0 && i < n) indices)

let trial_key (t : Tlog.trial) =
  ( t.Tlog.index,
    t.Tlog.config,
    Tlog.proposer_to_string t.Tlog.proposer,
    t.Tlog.latency )

let test_guided_parallel_eq_sequential () =
  (* The real tuner: the guided trial sequence and the winner must not
     depend on whether measurement ran across domains. *)
  let tune ~parallel =
    Tlog.start ();
    let r =
      Tu.tune_matmul ~device:dev ~parallel ~search:(Se.guided_matmul ())
        ~m:64 ~n:49 ~k:32 ()
    in
    (r, Tlog.stop ())
  in
  let r_seq, log_seq = tune ~parallel:false in
  let r_par, log_par = tune ~parallel:true in
  match (r_seq, r_par) with
  | Some (c1, _, st1), Some (c2, _, st2) ->
    Alcotest.(check string) "same winner" (MT.config_to_string c1)
      (MT.config_to_string c2);
    Alcotest.(check int) "same best index" st1.Tu.best_index st2.Tu.best_index;
    Alcotest.(check int) "same trials" st1.Tu.trials st2.Tu.trials;
    Alcotest.(check bool) "same logged trial sequence" true
      (List.map trial_key log_seq = List.map trial_key log_par)
  | _ -> Alcotest.fail "guided tune_matmul found nothing"

let test_guided_within_budget_and_quality () =
  (* Guided measures a bounded fraction and, on this small problem, must
     land close to the exhaustive winner (the bench gates check 5% on the
     quickstart shapes; here we assert a loose 10% to keep the unit test
     robust to space curation changes). *)
  let exh = Tu.tune_matmul ~device:dev ~m:64 ~n:49 ~k:32 () in
  let gui =
    Tu.tune_matmul ~device:dev ~search:(Se.guided_matmul ()) ~m:64 ~n:49 ~k:32
      ()
  in
  match (exh, gui) with
  | Some (_, _, st_e), Some (_, _, st_g) ->
    let n = List.length (Space.matmul_with_split_k ~m:64 ~n:49) in
    Alcotest.(check bool)
      (Printf.sprintf "guided trials %d <= 30%% of %d" st_g.Tu.trials n)
      true
      (float_of_int st_g.Tu.trials <= 0.30 *. float_of_int n);
    Alcotest.(check bool)
      (Printf.sprintf "guided %.3g within 10%% of exhaustive %.3g"
         st_g.Tu.best_latency st_e.Tu.best_latency)
      true
      (st_g.Tu.best_latency <= 1.10 *. st_e.Tu.best_latency)
  | _ -> Alcotest.fail "tuning found nothing"

(* --- schedule-cache keys ---------------------------------------------------------- *)

module Key = Hidet_sched.Schedule_cache.Key

(* Small alphabets so equal fields are drawn often: the property must then
   tell apart keys that differ in a single field. Workloads never contain
   '#', which separates the key's suffixes. *)
let gen_key =
  let open QCheck.Gen in
  let text =
    string_size ~gen:(oneofl [ 'a'; '1'; '_'; ':'; '='; ' ' ]) (int_range 0 4)
  in
  let params =
    let* seed = int_range 0 2
    and* budget_fraction = oneofl [ 0.2; 0.25; 1. /. 3. ]
    and* population = int_range 1 2
    and* elites = int_range 1 2
    and* patience = int_range 1 2 in
    return { Se.seed; budget_fraction; population; elites; patience }
  in
  let search =
    frequency
      [
        (1, return Key.Exhaustive);
        (3, map (fun p -> Key.Guided p) params);
      ]
  in
  let* workload = text
  and* search = search
  and* fidelity = oneofl [ `Analytic; `Cycle ] in
  return { Key.workload; search; fidelity }

let arb_key_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "%S / %S" (Key.to_string a) (Key.to_string b))
    (QCheck.Gen.pair gen_key gen_key)

let prop_key_strings =
  QCheck.Test.make ~name:"schedule-cache key strings" ~count:2000 arb_key_pair
    (fun (a, b) ->
      (* distinct key records give distinct strings *)
      (a = b || Key.to_string a <> Key.to_string b)
      (* exhaustive keys are the workload byte for byte, plus the
         unchanged cycle suffix *)
      && Key.to_string { a with Key.search = Key.Exhaustive; fidelity = `Analytic }
         = a.Key.workload
      && Key.to_string { a with Key.search = Key.Exhaustive; fidelity = `Cycle }
         = a.Key.workload ^ "#cycle")

let test_key_rejects_separator () =
  Alcotest.check_raises "'#' in a workload"
    (Invalid_argument "Schedule_cache.Key: '#' in workload a#cycle") (fun () ->
      ignore
        (Key.to_string
           { Key.workload = "a#cycle"; search = Key.Exhaustive; fidelity = `Analytic }))

(* --- rule-based, reduce and row templates -------------------------------------- *)

module Op = Hidet_graph.Op

let rule_based_cases =
  let cases =
    [
      ("relu", Op.Unary Op.Relu, [ [ 3; 17 ] ]);
      ("gelu", Op.Unary Op.Gelu, [ [ 2; 33 ] ]);
      ("sigmoid", Op.Unary Op.Sigmoid, [ [ 5; 5 ] ]);
      ("relu6", Op.Unary (Op.Clip (0., 6.)), [ [ 4; 11 ] ]);
      ("tanh", Op.Unary Op.Tanh_act, [ [ 4; 9 ] ]);
      ("add", Op.Binary Op.Add, [ [ 3; 8 ]; [ 3; 8 ] ]);
      ("mul", Op.Binary Op.Mul, [ [ 3; 8 ]; [ 3; 8 ] ]);
      ("bias_add", Op.Bias_add, [ [ 2; 4; 6 ]; [ 6 ] ]);
      ("scale_shift", Op.Scale_shift, [ [ 1; 4; 3; 3 ]; [ 4 ]; [ 4 ] ]);
      ("reshape", Op.Reshape [ 6; 4 ], [ [ 2; 12 ] ]);
      ("transpose", Op.Transpose [ 1; 0; 2 ], [ [ 2; 3; 4 ] ]);
      ("im2col", Op.Im2col { kh = 3; kw = 3; stride = 2; pad_h = 1; pad_w = 1 },
       [ [ 1; 3; 9; 9 ] ]);
      ("maxpool",
       Op.Pool2d { kind = Op.Max_pool; kernel = 3; stride = 2; padding = 1 },
       [ [ 1; 2; 9; 9 ] ]);
      ("avgpool",
       Op.Pool2d { kind = Op.Avg_pool; kernel = 2; stride = 2; padding = 0 },
       [ [ 1; 2; 8; 8 ] ]);
      ("global_avg_pool", Op.Global_avg_pool, [ [ 2; 3; 5; 5 ] ]);
      ("conv2d", Op.Conv2d { stride = 1; pad_h = 1; pad_w = 1 },
       [ [ 1; 3; 6; 6 ]; [ 4; 3; 3; 3 ] ]);
      ("dwconv", Op.Depthwise_conv2d { stride = 1; padding = 1 },
       [ [ 1; 4; 6; 6 ]; [ 4; 1; 3; 3 ] ]);
      ("concat", Op.Concat { axis = 1 }, [ [ 1; 2; 4 ]; [ 1; 3; 4 ]; [ 1; 1; 4 ] ]);
    ]
  in
  List.map
    (fun (name, op, in_shapes) ->
      Alcotest.test_case ("rule-based " ^ name) `Quick (fun () ->
          let inputs = List.mapi (fun i s -> T.rand ~seed:(100 + i) s) in_shapes in
          let expect = Op.eval op inputs in
          let compiled = RB.schedule (Op.to_def op in_shapes) in
          C.verify compiled;
          let got = C.run compiled inputs in
          if not (T.allclose ~rtol:1e-3 ~atol:1e-4 expect got) then
            Alcotest.failf "%s: rule-based kernel disagrees (max diff %g)" name
              (T.max_abs_diff expect got)))
    cases

let test_reduce_template_matches_rule_based () =
  let def = Op.to_def Op.Global_avg_pool [ [ 2; 5; 12; 12 ] ] in
  let x = T.rand ~seed:11 [ 2; 5; 12; 12 ] in
  let a = C.run (RB.schedule def) [ x ] in
  List.iter
    (fun cfg ->
      let b = C.run (Red.schedule ~config:cfg def) [ x ] in
      Alcotest.(check bool)
        (Printf.sprintf "block %d" cfg.Red.block_size)
        true
        (T.allclose ~rtol:1e-4 ~atol:1e-5 a b))
    Red.space

let test_reduce_template_rejects () =
  Alcotest.(check bool) "no reduction" true
    (try
       ignore (Red.schedule (Op.to_def (Op.Unary Op.Relu) [ [ 4 ] ]));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "non pow2 block" true
    (try
       ignore
         (Red.schedule ~config:{ Red.block_size = 96 }
            (Op.to_def Op.Global_avg_pool [ [ 1; 1; 4; 4 ] ]));
       false
     with Invalid_argument _ -> true)

let test_softmax_template () =
  List.iter
    (fun (rows, cols, block) ->
      let x = T.rand ~seed:12 [ rows; cols ] in
      let c = RT.softmax ~block_size:block ~rows ~cols () in
      C.verify c;
      let got = C.run c [ x ] in
      Alcotest.(check bool)
        (Printf.sprintf "softmax %dx%d b%d" rows cols block)
        true
        (T.allclose ~rtol:1e-4 ~atol:1e-5 (T.softmax x ~axis:1) got))
    [ (4, 64, 64); (3, 100, 128); (7, 33, 32); (1, 257, 256) ]

let test_layernorm_template () =
  List.iter
    (fun (rows, cols) ->
      let x = T.rand ~seed:13 [ rows; cols ] in
      let gamma = T.rand ~seed:14 [ cols ] and beta = T.rand ~seed:15 [ cols ] in
      let c = RT.layernorm ~rows ~cols () in
      let got = C.run c [ x; gamma; beta ] in
      Alcotest.(check bool)
        (Printf.sprintf "layernorm %dx%d" rows cols)
        true
        (T.allclose ~rtol:1e-2 ~atol:1e-3
           (T.layernorm x ~gamma ~beta ~eps:1e-5)
           got))
    [ (4, 64); (2, 100); (5, 7) ]

(* CUDA names come from the kernel, not from process-global ids: the same
   config instantiated twice (fresh buffers and variables each time) prints
   byte-identical source, split-k's two kernels and the tensor-core path
   included. *)
let test_cuda_source_id_free () =
  let twice what compile =
    let a = C.cuda_source (compile ()) and b = C.cuda_source (compile ()) in
    Alcotest.(check string) what a b
  in
  twice "matmul 123x77x45" (fun () -> MT.compile ~m:123 ~n:77 ~k:45 base);
  twice "split-k 4-stage" (fun () ->
      MT.compile ~m:33 ~n:47 ~k:100 { base with MT.stages = 4; split_k = 4 });
  twice "tensor core" (fun () ->
      MT.compile ~m:64 ~n:64 ~k:32
        { base with MT.use_tensor_core = true; warp_m = 32; warp_n = 32; block_k = 16 });
  twice "layernorm" (fun () -> RT.layernorm ~rows:5 ~cols:7 ())

let test_compiled_plumbing () =
  let c = MT.compile ~m:32 ~n:32 ~k:32 { base with MT.block_m = 32; block_n = 32; warp_m = 16; warp_n = 16 } in
  Alcotest.(check bool) "cuda source mentions kernel" true
    (let src = C.cuda_source c in
     String.length src > 100
     &&
     let rec search i =
       if i + 10 > String.length src then false
       else if String.sub src i 10 = "__global__" then true
       else search (i + 1)
     in
     search 0);
  Alcotest.(check bool) "wrong input count rejected" true
    (try
       ignore (C.run c [ T.rand [ 32; 32 ] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong element count rejected" true
    (try
       ignore (C.run c [ T.rand [ 16; 16 ]; T.rand [ 32; 32 ] ]);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "hidet_sched"
    [
      ( "matmul template",
        [
          Alcotest.test_case "basic" `Quick test_matmul_basic;
          Alcotest.test_case "no double buffer" `Quick test_matmul_no_db;
          Alcotest.test_case "odd sizes" `Quick test_matmul_odd_sizes;
          Alcotest.test_case "split-k" `Quick test_matmul_split_k;
          Alcotest.test_case "tensor core" `Quick test_matmul_tensor_core;
          Alcotest.test_case "batched" `Quick test_matmul_batched;
          Alcotest.test_case "config check" `Quick test_config_check;
          Alcotest.test_case "pipeline structure" `Quick test_double_buffer_structure;
          Alcotest.test_case "db faster in model" `Quick test_db_faster_in_model;
          Alcotest.test_case "swizzle faster in model" `Quick
            test_swizzle_faster_in_model;
        ] );
      ( "space",
        [
          Alcotest.test_case "size" `Quick test_space_size;
          Alcotest.test_case "all valid" `Quick test_space_all_valid;
          Alcotest.test_case "input agnostic" `Quick test_space_input_agnostic;
          Alcotest.test_case "split-k extension" `Quick test_space_split_k_extension;
          Alcotest.test_case "split-k spaces built once" `Quick test_space_split_k_memo;
          Alcotest.test_case "first calls racing" `Quick test_space_memo_race;
          Alcotest.test_case "serves a cache saved before the memo" `Quick
            test_space_serves_older_cache;
          Alcotest.test_case "duplicate-free" `Quick test_space_dedup;
          Alcotest.test_case "widened dimensions" `Quick test_space_widened;
        ] );
      ("space sampled correctness", space_sampled_cases);
      ( "tuner",
        [
          Alcotest.test_case "picks minimum" `Quick test_tuner_picks_minimum;
          Alcotest.test_case "skips invalid" `Quick test_tuner_skips_invalid;
          Alcotest.test_case "matmul end-to-end" `Quick test_tune_matmul_end_to_end;
        ] );
      ( "guided search",
        [
          QCheck_alcotest.to_alcotest prop_guided_deterministic;
          Alcotest.test_case "parallel == sequential" `Quick
            test_guided_parallel_eq_sequential;
          Alcotest.test_case "budget and quality" `Quick
            test_guided_within_budget_and_quality;
          QCheck_alcotest.to_alcotest prop_key_strings;
          Alcotest.test_case "key separator" `Quick test_key_rejects_separator;
        ] );
      ("rule-based op zoo", rule_based_cases);
      ( "other templates",
        [
          Alcotest.test_case "reduce = rule-based" `Quick
            test_reduce_template_matches_rule_based;
          Alcotest.test_case "reduce rejects" `Quick test_reduce_template_rejects;
          Alcotest.test_case "softmax rows" `Quick test_softmax_template;
          Alcotest.test_case "layernorm rows" `Quick test_layernorm_template;
          Alcotest.test_case "compiled plumbing" `Quick test_compiled_plumbing;
          Alcotest.test_case "CUDA source is id-free" `Quick test_cuda_source_id_free;
        ] );
    ]
