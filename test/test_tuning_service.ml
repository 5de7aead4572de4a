(* Tests for the tuning service: parallel/sequential determinism of the
   tuner, the process-global schedule cache (hit/miss, stale entries,
   persistence), the engine's warm-start behaviour, and the occupancy-limit
   guard for register-free kernels. *)

module MT = Hidet_sched.Matmul_template
module Space = Hidet_sched.Space
module Tu = Hidet_sched.Tuner
module SC = Hidet_sched.Schedule_cache
module Par = Hidet_sched.Parallel
module C = Hidet_sched.Compiled
module PM = Hidet_gpu.Perf_model
module E = Hidet_runtime.Engine
module HE = Hidet.Hidet_engine
module M = Hidet_models.Models

let dev = Hidet_gpu.Device.rtx3090

(* --- parallel == sequential ------------------------------------------------ *)

(* Random sub-spaces of the matmul space at random problem sizes: the
   parallel enumeration must select the identical winner (config, index,
   latency) and report identical accounting as the sequential one. *)

let gen_case =
  let open QCheck.Gen in
  let size = oneofa [| 17; 32; 49; 64; 96; 128 |] in
  let* m = size and* n = size and* k = size in
  let* stride = int_range 5 19 in
  let* offset = int_range 0 4 in
  return (m, n, k, stride, offset)

let arb_case =
  QCheck.make
    ~print:(fun (m, n, k, stride, offset) ->
      Printf.sprintf "m=%d n=%d k=%d stride=%d offset=%d" m n k stride offset)
    gen_case

let sub_space ~m ~n ~stride ~offset =
  Space.matmul_with_split_k ~m ~n
  |> List.filteri (fun i _ -> i mod stride = offset)

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel tuning = sequential tuning" ~count:12
    arb_case (fun (m, n, k, stride, offset) ->
      let candidates = sub_space ~m ~n ~stride ~offset in
      QCheck.assume (candidates <> []);
      let compile cfg = MT.compile ~m ~n ~k cfg in
      let run ~parallel ?workers () =
        Tu.tune ~parallel ?workers ~device:dev ~candidates ~compile ()
      in
      match (run ~parallel:false (), run ~parallel:true ~workers:4 ()) with
      | None, None -> true
      | Some (c1, _, s1), Some (c2, _, s2) ->
        c1 = c2
        && s1.Tu.best_index = s2.Tu.best_index
        && s1.Tu.best_latency = s2.Tu.best_latency
        && s1.Tu.trials = s2.Tu.trials
        && s1.Tu.rejected = s2.Tu.rejected
        && s1.Tu.simulated_seconds = s2.Tu.simulated_seconds
      | _ -> false)

let test_parallel_ties_break_low () =
  (* Four identical candidates: every domain count must pick index 0. *)
  let candidates = [ 0; 1; 2; 3 ] in
  let compile _ = MT.compile ~m:64 ~n:64 ~k:64 MT.default_config in
  List.iter
    (fun workers ->
      match Tu.tune ~workers ~device:dev ~candidates ~compile () with
      | Some (best, _, st) ->
        Alcotest.(check int)
          (Printf.sprintf "tie -> lowest index (workers=%d)" workers)
          0 best;
        Alcotest.(check int) "best_index" 0 st.Tu.best_index
      | None -> Alcotest.fail "tuner found nothing")
    [ 1; 2; 4; 8 ]

let test_parallel_speedup () =
  (* The acceptance demo needs >= 4 real cores; on smaller machines we only
     check that the parallel path agrees with the sequential one on the full
     ~220-candidate space. *)
  let m = 512 and n = 49 and k = 512 in
  let candidates = Space.matmul_with_split_k ~m ~n in
  let compile cfg = MT.compile ~m ~n ~k cfg in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, seq_t =
    time (fun () -> Tu.tune ~parallel:false ~device:dev ~candidates ~compile ())
  in
  let par, par_t =
    time (fun () -> Tu.tune ~parallel:true ~device:dev ~candidates ~compile ())
  in
  (match (seq, par) with
  | Some (c1, _, s1), Some (c2, _, s2) ->
    Alcotest.(check bool) "same winner" true (c1 = c2);
    Alcotest.(check int) "same index" s1.Tu.best_index s2.Tu.best_index
  | _ -> Alcotest.fail "tuner found nothing");
  if Domain.recommended_domain_count () >= 4 then
    Alcotest.(check bool)
      (Printf.sprintf ">=2x speedup on %d candidates (seq %.2fs, par %.2fs)"
         (List.length candidates) seq_t par_t)
      true
      (par_t *. 2. <= seq_t)
  else
    Printf.printf
      "  [speedup check skipped: %d core(s) here, need >= 4; seq %.2fs par %.2fs]\n"
      (Domain.recommended_domain_count ()) seq_t par_t

let test_parallel_map_propagates_errors () =
  Alcotest.check_raises "worker exception reaches caller" (Failure "boom")
    (fun () ->
      ignore (Par.map ~workers:4 (fun i -> if i = 5 then failwith "boom" else i)
                (Array.init 32 Fun.id)))

(* --- schedule cache -------------------------------------------------------- *)

let entry_testable =
  Alcotest.testable
    (fun fmt (e : SC.entry) ->
      Format.fprintf fmt
        "{idx=%d; size=%d; config=%S; trials=%d; rej=%d; sim=%g; lat=%g}"
        e.SC.best_index e.SC.space_size e.SC.config e.SC.trials e.SC.rejected
        e.SC.simulated_seconds e.SC.best_latency)
    ( = )

let tune_cached ~key candidates =
  SC.tune ~show:MT.config_to_string ~device:dev ~workload:key ~candidates
    ~compile:(fun cfg -> MT.compile ~m:64 ~n:64 ~k:64 cfg)
    ()

let test_cache_miss_then_hit () =
  SC.clear ();
  let candidates =
    List.filteri (fun i _ -> i mod 40 = 0) (Space.matmul ())
  in
  (match tune_cached ~key:"m64n64k64" candidates with
  | Some (_, _, SC.Fresh st) ->
    Alcotest.(check int) "one entry" 1 (SC.size ());
    Alcotest.(check int) "first call misses" 1 (SC.misses ());
    (* The second call must serve the stored entry and agree with the
       fresh stats field by field. *)
    (match tune_cached ~key:"m64n64k64" candidates with
    | Some (cand2, _, SC.Hit e) ->
      Alcotest.(check int) "hit counted" 1 (SC.hits ());
      Alcotest.check entry_testable "entry mirrors fresh stats"
        {
          SC.best_index = st.Tu.best_index;
          space_size = List.length candidates;
          config = MT.config_to_string (List.nth candidates st.Tu.best_index);
          trials = st.Tu.trials;
          rejected = st.Tu.rejected;
          simulated_seconds = st.Tu.simulated_seconds;
          best_latency = st.Tu.best_latency;
        }
        e;
      Alcotest.(check bool) "same winner" true
        (cand2 = List.nth candidates st.Tu.best_index)
    | _ -> Alcotest.fail "second call did not hit")
  | _ -> Alcotest.fail "first call was not fresh");
  (* A different key is a different workload: no false sharing. *)
  match tune_cached ~key:"other" candidates with
  | Some (_, _, SC.Fresh _) ->
    Alcotest.(check int) "two entries" 2 (SC.size ())
  | _ -> Alcotest.fail "distinct key must tune fresh"

let test_cache_search_modes_do_not_alias () =
  (* A guided winner must never answer for the exhaustive oracle (or vice
     versa): the search mode is folded into the cache key. *)
  let module Se = Hidet_sched.Search in
  SC.clear ();
  let candidates = List.filteri (fun i _ -> i mod 10 = 0) (Space.matmul ()) in
  let tune ~search =
    SC.tune ~show:MT.config_to_string ~device:dev ~workload:"modes" ~search
      ~candidates
      ~compile:(fun cfg -> MT.compile ~m:64 ~n:64 ~k:64 cfg)
      ()
  in
  (match tune ~search:Se.Exhaustive with
  | Some (_, _, SC.Fresh _) -> ()
  | _ -> Alcotest.fail "exhaustive first call must be fresh");
  (match tune ~search:(Se.guided_matmul ()) with
  | Some (_, _, SC.Fresh _) ->
    Alcotest.(check int) "guided gets its own entry" 2 (SC.size ())
  | Some (_, _, SC.Hit _) ->
    Alcotest.fail "guided call served the exhaustive entry"
  | None -> Alcotest.fail "guided call found nothing");
  (* Both modes now hit their own entries. *)
  (match tune ~search:Se.Exhaustive with
  | Some (_, _, SC.Hit _) -> ()
  | _ -> Alcotest.fail "exhaustive re-tune should hit");
  match tune ~search:(Se.guided_matmul ()) with
  | Some (_, _, SC.Hit _) -> ()
  | _ -> Alcotest.fail "guided re-tune should hit"

let test_cache_stale_space_retunes () =
  SC.clear ();
  let candidates = List.filteri (fun i _ -> i mod 50 = 0) (Space.matmul ()) in
  (* Entry recorded against a differently-sized space: index is meaningless,
     the service must retune and overwrite. *)
  SC.add ~device:dev.Hidet_gpu.Device.name ~key:"stale"
    {
      SC.best_index = 3;
      space_size = List.length candidates + 7;
      config = "";
      trials = 10;
      rejected = 0;
      simulated_seconds = 15.;
      best_latency = 1e-3;
    };
  match tune_cached ~key:"stale" candidates with
  | Some (_, _, SC.Fresh _) -> (
    match SC.find ~device:dev.Hidet_gpu.Device.name ~key:"stale" with
    | Some e ->
      Alcotest.(check int) "overwritten with real space size"
        (List.length candidates) e.SC.space_size
    | None -> Alcotest.fail "entry vanished")
  | _ -> Alcotest.fail "stale entry must not be served"

let test_cache_uninstantiable_winner_retunes () =
  SC.clear ();
  let candidates = [ `Bad; `Good ] in
  let show = function `Bad -> "bad" | `Good -> "good" in
  let compile = function
    | `Bad -> invalid_arg "template rejects this now"
    | `Good -> MT.compile ~m:64 ~n:64 ~k:64 MT.default_config
  in
  (* The stored winner no longer instantiates (template evolved under the
     key): the service must fall back to a fresh tune, not crash. *)
  SC.add ~device:dev.Hidet_gpu.Device.name ~key:"evolved"
    {
      SC.best_index = 0;
      space_size = 2;
      config = "bad";
      trials = 2;
      rejected = 0;
      simulated_seconds = 3.;
      best_latency = 1e-3;
    };
  match SC.tune ~show ~device:dev ~workload:"evolved" ~candidates ~compile () with
  | Some (cand, _, SC.Fresh _) ->
    Alcotest.(check bool) "retuned to the feasible winner" true (cand = `Good)
  | _ -> Alcotest.fail "uninstantiable winner must trigger a fresh tune"

(* --- persistence ----------------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "hidet_cache_test" ".cache" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_persistence_round_trip () =
  SC.clear ();
  let e =
    {
      SC.best_index = 5;
      space_size = 40;
      config = "bm64_bn64";
      trials = 38;
      rejected = 2;
      simulated_seconds = 57.;
      best_latency = 2.5e-4;
    }
  in
  SC.add ~device:"rtx3090" ~key:"matmul_b1_m64_n64_k64" e;
  SC.add ~device:"rtx3090" ~key:"weird key with spaces" { e with SC.best_index = 1 };
  with_temp_file (fun path ->
      SC.save path;
      SC.clear ();
      Alcotest.(check int) "cleared" 0 (SC.size ());
      (match SC.load path with
      | Ok n -> Alcotest.(check int) "both entries loaded" 2 n
      | Error msg -> Alcotest.failf "load failed: %s" msg);
      match SC.find ~device:"rtx3090" ~key:"matmul_b1_m64_n64_k64" with
      | Some got -> Alcotest.check entry_testable "round-trips exactly" e got
      | None -> Alcotest.fail "entry lost in round trip")

let test_persistence_config_column () =
  SC.clear ();
  let candidates = [ "a\tb"; "c" ] in
  let tune () =
    SC.tune ~show:Fun.id ~device:dev ~workload:"tabbed" ~candidates
      ~compile:(fun _ -> MT.compile ~m:64 ~n:64 ~k:64 MT.default_config)
      ()
  in
  ignore (tune ());
  let key = "tabbed" and device = dev.Hidet_gpu.Device.name in
  let stored = Option.get (SC.find ~device ~key) in
  Alcotest.(check string) "tab sanitized" "a b" stored.SC.config;
  with_temp_file (fun path ->
      SC.save path;
      SC.clear ();
      (match SC.load path with
      | Ok n -> Alcotest.(check int) "entry loaded" 1 n
      | Error msg -> Alcotest.failf "load failed: %s" msg);
      Alcotest.check entry_testable "config round-trips" stored
        (Option.get (SC.find ~device ~key));
      match tune () with
      | Some (_, _, SC.Hit _) -> ()
      | _ -> Alcotest.fail "reloaded entry must be served")

let test_persistence_refuses_v1 () =
  (* A v1 entry has no fingerprint: it cannot be verified, so the whole
     file is refused rather than served. *)
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "HIDET-SCHEDULE-CACHE v1\n";
      output_string oc "rtx3090\tgood\t2\t10\t9\t1\t13.5\t0.00025\n";
      close_out oc;
      Alcotest.(check bool) "v1 refused" true (Result.is_error (SC.load path)))

let test_persistence_rejects_foreign_and_stale () =
  with_temp_file (fun path ->
      let write s =
        let oc = open_out path in
        output_string oc s;
        close_out oc
      in
      write "not a cache file\njunk\n";
      Alcotest.(check bool) "foreign file rejected" true
        (Result.is_error (SC.load path));
      write "HIDET-SCHEDULE-CACHE v99\nrtx3090\tk\t0\t1\tc\t1\t0\t1.5\t1e-4\n";
      Alcotest.(check bool) "future version rejected" true
        (Result.is_error (SC.load path));
      write "";
      Alcotest.(check bool) "empty file rejected" true
        (Result.is_error (SC.load path)))

let test_persistence_skips_corrupt_lines () =
  SC.clear ();
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "HIDET-SCHEDULE-CACHE v2\n";
      output_string oc "rtx3090\tgood\t2\t10\tc\t9\t1\t13.5\t0.00025\n";
      output_string oc "rtx3090\ttruncated\t2\t10\n";
      output_string oc "total garbage line\n";
      output_string oc "rtx3090\tbad_index\t12\t10\tc\t9\t1\t13.5\t0.00025\n";
      output_string oc "rtx3090\tv1_line\t2\t10\t9\t1\t13.5\t0.00025\n";
      output_string oc "rtx3090\talso_good\t0\t4\t\t4\t0\t6\t0.001\n";
      close_out oc;
      (match SC.load path with
      | Ok n -> Alcotest.(check int) "only well-formed lines load" 2 n
      | Error msg -> Alcotest.failf "load failed: %s" msg);
      match SC.find ~device:"rtx3090" ~key:"good" with
      | Some e ->
        Alcotest.(check int) "fields parsed" 2 e.SC.best_index;
        Alcotest.(check int) "trials parsed" 9 e.SC.trials
      | None -> Alcotest.fail "good entry skipped")

let test_persistence_rejects_nonfinite_floats () =
  SC.clear ();
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "HIDET-SCHEDULE-CACHE v2\n";
      (* "nan" and "inf" parse as floats; negatives parse as ints/floats —
         all must be rejected, not loaded into the stats. *)
      output_string oc "rtx3090\tnan_sim\t2\t10\tc\t9\t1\tnan\t0.00025\n";
      output_string oc "rtx3090\tnan_lat\t2\t10\tc\t9\t1\t13.5\tnan\n";
      output_string oc "rtx3090\tinf_sim\t2\t10\tc\t9\t1\tinf\t0.00025\n";
      output_string oc "rtx3090\tneg_sim\t2\t10\tc\t9\t1\t-13.5\t0.00025\n";
      output_string oc "rtx3090\tneg_lat\t2\t10\tc\t9\t1\t13.5\t-0.00025\n";
      output_string oc "rtx3090\tgood\t2\t10\tc\t9\t1\t13.5\t0.00025\n";
      close_out oc;
      (match SC.load path with
      | Ok n -> Alcotest.(check int) "only the finite line loads" 1 n
      | Error msg -> Alcotest.failf "load failed: %s" msg);
      Alcotest.(check bool) "good entry present" true
        (SC.find ~device:"rtx3090" ~key:"good" <> None);
      Alcotest.(check bool) "nan entry rejected" true
        (SC.find ~device:"rtx3090" ~key:"nan_sim" = None))

let test_concurrent_saves_leave_loadable_file () =
  SC.clear ();
  let e =
    {
      SC.best_index = 1;
      space_size = 8;
      config = "";
      trials = 8;
      rejected = 0;
      simulated_seconds = 2.5;
      best_latency = 1e-4;
    }
  in
  for i = 0 to 19 do
    SC.add ~device:"rtx3090" ~key:(Printf.sprintf "wl%d" i) e
  done;
  with_temp_file (fun path ->
      (* Two domains hammer save on the same path. With the old fixed
         [path ^ ".tmp"] temp name their partial writes interleave; with
         per-call unique temp names every rename publishes one complete
         file, so the survivor must always load. *)
      let saver () =
        for _ = 1 to 25 do
          SC.save path
        done
      in
      let d1 = Domain.spawn saver and d2 = Domain.spawn saver in
      Domain.join d1;
      Domain.join d2;
      SC.clear ();
      (match SC.load path with
      | Ok n -> Alcotest.(check int) "all entries present" 20 n
      | Error msg -> Alcotest.failf "concurrent saves corrupted the file: %s" msg);
      (* No temp droppings left behind. *)
      let dir = Filename.dirname path and base = Filename.basename path in
      let leftovers =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f ->
               String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "temp files cleaned up" [] leftovers)

(* --- hit/stale accounting --------------------------------------------------- *)

let test_cache_counters_agree_on_stale () =
  SC.clear ();
  let candidates = List.filteri (fun i _ -> i mod 50 = 0) (Space.matmul ()) in
  SC.add ~device:dev.Hidet_gpu.Device.name ~key:"stale_counts"
    {
      SC.best_index = 0;
      space_size = List.length candidates + 3;
      config = "";
      trials = 5;
      rejected = 0;
      simulated_seconds = 1.;
      best_latency = 1e-3;
    };
  (match tune_cached ~key:"stale_counts" candidates with
  | Some (_, _, SC.Fresh _) -> ()
  | _ -> Alcotest.fail "stale entry must retune");
  (* A stale lookup is stale (and a miss — it paid a tuning run), never a
     hit: the raw counters must agree with the schedule_cache.* metrics. *)
  Alcotest.(check int) "no hit counted" 0 (SC.hits ());
  Alcotest.(check int) "stale counted" 1 (SC.stale ());
  Alcotest.(check int) "miss counted" 1 (SC.misses ())

(* --- the key and the fingerprint --------------------------------------------- *)

let test_guided_key_names_the_whole_search () =
  (* A guided winner is only the best of what that seed, budget and warm
     start measured: a run differing in any of them must tune fresh. *)
  let module Se = Hidet_sched.Search in
  SC.clear ();
  let candidates = List.filteri (fun i _ -> i mod 10 = 0) (Space.matmul ()) in
  let tune search =
    match
      SC.tune ~show:MT.config_to_string ~device:dev ~workload:"guided" ~search
        ~candidates
        ~compile:(fun cfg -> MT.compile ~m:64 ~n:64 ~k:64 cfg)
        ()
    with
    | Some (_, _, SC.Fresh _) -> `Fresh
    | Some (_, _, SC.Hit _) -> `Hit
    | None -> Alcotest.fail "guided tune found nothing"
  in
  let params seed = { Se.default_guided_params with Se.seed } in
  let seed1 = Se.guided_matmul ~params:(params 1) () in
  let seed2 = Se.guided_matmul ~params:(params 2) () in
  let warm =
    Se.guided_matmul ~params:(params 2)
      ~warm:[ (List.hd candidates, 1e-4); (List.nth candidates 3, 2e-4) ]
      ()
  in
  List.iter
    (fun (name, search) ->
      Alcotest.(check bool) (name ^ " tunes fresh") true (tune search = `Fresh))
    [ ("seed 1", seed1); ("seed 2", seed2); ("warm start", warm) ];
  List.iter
    (fun (name, search) ->
      Alcotest.(check bool) (name ^ " repeated hits") true (tune search = `Hit))
    [ ("seed 1", seed1); ("seed 2", seed2); ("warm start", warm) ];
  Alcotest.(check int) "three entries" 3 (SC.size ())

let test_reordered_space_is_stale () =
  (* Same size, different order: the stored index now names another
     config, so the entry must be judged stale, not served. *)
  SC.clear ();
  let candidates = List.filteri (fun i _ -> i mod 40 = 0) (Space.matmul ()) in
  let winner = function
    | Some (cfg, _, _) -> cfg
    | None -> Alcotest.fail "tune found nothing"
  in
  let first = winner (tune_cached ~key:"reordered" candidates) in
  match tune_cached ~key:"reordered" (List.rev candidates) with
  | Some (cfg, _, SC.Fresh _) ->
    Alcotest.(check string) "same winning config"
      (MT.config_to_string first) (MT.config_to_string cfg);
    Alcotest.(check int) "stale counted" 1 (SC.stale ());
    Alcotest.(check int) "both calls missed" 2 (SC.misses ());
    Alcotest.(check int) "no hit" 0 (SC.hits ())
  | Some (_, _, SC.Hit _) -> Alcotest.fail "reordered space served a hit"
  | None -> Alcotest.fail "retune found nothing"

(* --- engine warm start ----------------------------------------------------- *)

let test_engine_warm_start () =
  SC.clear ();
  let cold = HE.compile dev (M.Tiny.cnn ()) in
  Alcotest.(check bool) "cold compile pays fresh trials" true
    (cold.E.tuning_cost > 0.);
  let warm = HE.compile dev (M.Tiny.cnn ()) in
  Alcotest.(check (float 1e-9)) "warm compile runs zero fresh trials" 0.
    warm.E.tuning_cost;
  Alcotest.(check bool) "avoided cost reported" true
    (warm.E.cached_tuning_cost > 0.);
  Alcotest.(check (float 1e-6)) "total cost is compile-order independent"
    (E.total_tuning_cost cold)
    (E.total_tuning_cost warm);
  Alcotest.(check (float 1e-9)) "same predicted latency" cold.E.latency
    warm.E.latency

(* Compile options travel with the compile: a cycle-fidelity guided compile
   running next to a default one on another domain changes nothing about
   the default compile, and neither depends on which runs first. *)
let test_options_do_not_leak () =
  let tuned =
    {
      HE.default_options with
      HE.fidelity = `Cycle;
      (* a small budget keeps the cycle-model compile quick *)
      search =
        Hidet_sched.Search.guided_matmul
          ~params:
            {
              Hidet_sched.Search.default_guided_params with
              budget_fraction = 0.05;
              population = 8;
            }
          ();
    }
  in
  let compile options =
    let _, r = HE.compile_plan ~options dev (M.Tiny.separable ()) in
    (r.E.latency, r.E.kernel_count)
  in
  let keys () = SC.keys_for_device dev.Hidet_gpu.Device.name in
  SC.clear ();
  let d = Domain.spawn (fun () -> compile tuned) in
  let default_concurrent = compile HE.default_options in
  let tuned_concurrent = Domain.join d in
  let keys_concurrent = keys () in
  SC.clear ();
  let tuned_sequential = compile tuned in
  let default_sequential = compile HE.default_options in
  let pair = Alcotest.(pair (float 0.) int) in
  Alcotest.check pair "tuned compile" tuned_sequential tuned_concurrent;
  Alcotest.check pair "default compile" default_sequential default_concurrent;
  Alcotest.(check (list string)) "cache keys" (keys ()) keys_concurrent;
  SC.clear ();
  Alcotest.check pair "default matches a default-only compile"
    (compile HE.default_options) default_concurrent;
  Alcotest.(check (list string)) "default keys carry no suffix" (keys ())
    (List.filter (fun k -> not (String.contains k '#')) keys_concurrent)

(* --- occupancy guard ------------------------------------------------------- *)

let test_occupancy_regs_zero () =
  (* A kernel using no registers is not register-limited; the thread and
     block caps still apply (the old model divided by zero here). *)
  (match PM.blocks_per_sm_limit dev ~block_dim:256 ~smem:0 ~regs:0 with
  | Ok blocks ->
    let by_threads =
      dev.Hidet_gpu.Device.max_threads_per_sm / 256
    in
    Alcotest.(check int) "thread-limited"
      (min by_threads dev.Hidet_gpu.Device.max_blocks_per_sm)
      blocks
  | Error e -> Alcotest.failf "regs=0 must stay feasible: %s" e);
  (* Shared memory still limits a register-free kernel. *)
  match
    PM.blocks_per_sm_limit dev ~block_dim:128
      ~smem:(dev.Hidet_gpu.Device.shared_mem_per_sm / 2)
      ~regs:0
  with
  | Ok blocks -> Alcotest.(check int) "smem-limited" 2 blocks
  | Error e -> Alcotest.failf "regs=0 with smem must stay feasible: %s" e

let () =
  Alcotest.run "hidet_tuning_service"
    [
      ( "parallel tuner",
        [
          QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
          Alcotest.test_case "ties break to lowest index" `Quick
            test_parallel_ties_break_low;
          Alcotest.test_case "speedup / full-space agreement" `Slow
            test_parallel_speedup;
          Alcotest.test_case "worker errors propagate" `Quick
            test_parallel_map_propagates_errors;
        ] );
      ( "schedule cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "search modes do not alias" `Quick
            test_cache_search_modes_do_not_alias;
          Alcotest.test_case "stale space retunes" `Quick
            test_cache_stale_space_retunes;
          Alcotest.test_case "uninstantiable winner retunes" `Quick
            test_cache_uninstantiable_winner_retunes;
          Alcotest.test_case "counters agree on stale" `Quick
            test_cache_counters_agree_on_stale;
          Alcotest.test_case "guided key names the whole search" `Quick
            test_guided_key_names_the_whole_search;
          Alcotest.test_case "reordered space is stale" `Quick
            test_reordered_space_is_stale;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "round trip" `Quick test_persistence_round_trip;
          Alcotest.test_case "config column" `Quick
            test_persistence_config_column;
          Alcotest.test_case "v1 refused" `Quick test_persistence_refuses_v1;
          Alcotest.test_case "foreign/stale headers" `Quick
            test_persistence_rejects_foreign_and_stale;
          Alcotest.test_case "corrupt lines skipped" `Quick
            test_persistence_skips_corrupt_lines;
          Alcotest.test_case "non-finite floats rejected" `Quick
            test_persistence_rejects_nonfinite_floats;
          Alcotest.test_case "concurrent saves stay loadable" `Quick
            test_concurrent_saves_leave_loadable_file;
        ] );
      ( "engine warm start",
        [
          Alcotest.test_case "zero fresh trials" `Quick test_engine_warm_start;
          Alcotest.test_case "options do not leak" `Quick
            test_options_do_not_leak;
        ] );
      ( "occupancy",
        [
          Alcotest.test_case "regs = 0 guarded" `Quick test_occupancy_regs_zero;
        ] );
    ]
