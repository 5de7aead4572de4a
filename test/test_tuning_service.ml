(* Tests for the tuning service: parallel/sequential determinism of the
   tuner, its lower-bound skips, the process-global schedule cache (hit/miss, stale entries,
   persistence and its line digest), the engine's cache-served recompile,
   and the occupancy-limit guard for register-free kernels. *)

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

(* --- branch-and-bound -------------------------------------------------------- *)

(* The lower bound changes which candidates are instantiated, never the
   result: with and without it, and on one or four workers, the tuner picks
   the same winner with the same latency, bills the same simulated seconds,
   and the bound's skips account for exactly the trials it saved. *)

let bits = Int64.bits_of_float

let same_result (c1, _, (s1 : Tu.stats)) (c2, _, (s2 : Tu.stats)) =
  c1 = c2
  && s1.best_index = s2.best_index
  && Int64.equal (bits s1.best_latency) (bits s2.best_latency)
  && Int64.equal (bits s1.simulated_seconds) (bits s2.simulated_seconds)
  && s1.rejected = s2.rejected
  && s1.trials + s1.pruned = s2.trials + s2.pruned

let test_bound_keeps_winner () =
  let tiny = Zoo.matmuls dev M.tiny_all in
  let zoo = List.filteri (fun i _ -> i mod 8 = 0) (Zoo.matmuls dev M.all) in
  let pruned = ref 0 and total = ref 0 in
  List.iter
    (fun { Zoo.batch; a_batched; b_batched; m; n; k } ->
      let name = Printf.sprintf "%dx%dx%dx%d" batch m n k in
      let candidates = Space.matmul_with_split_k ~m ~n in
      let tune ?lower_bound ?workers ~parallel () =
        Tu.tune ~parallel ?workers ?lower_bound ~device:dev ~candidates
          ~compile:(MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k)
          ()
        |> Option.get
      in
      let lower_bound = MT.lower_bound dev ~batch ~m ~n ~k in
      let full = tune ~parallel:false () in
      let (_, _, s1) as seq = tune ~lower_bound ~parallel:false () in
      let (_, _, s4) as par = tune ~lower_bound ~parallel:true ~workers:4 () in
      Alcotest.(check bool) (name ^ ": same winner as without the bound") true
        (same_result seq full);
      Alcotest.(check bool) (name ^ ": workers 1 = workers 4") true
        (same_result seq par && s1.Tu.trials = s4.Tu.trials
        && s1.Tu.pruned = s4.Tu.pruned);
      pruned := !pruned + s1.Tu.pruned;
      total := !total + List.length candidates)
    (tiny @ zoo);
  Alcotest.(check bool)
    (Printf.sprintf "the bound skips most candidates (%d of %d)" !pruned !total)
    true
    (2 * !pruned > !total)

(* The bound is a floor on the analytic latency only: a cycle-fidelity or
   guided tune ignores it, even one that would skip everything. *)
let test_bound_scope () =
  let m = 96 and n = 64 and k = 128 in
  let candidates = sub_space ~m ~n ~stride:24 ~offset:0 in
  let pruned ?fidelity ?search () =
    match
      Tu.tune ?fidelity ?search ~lower_bound:(fun _ -> infinity) ~device:dev
        ~candidates ~compile:(MT.compile ~m ~n ~k) ()
    with
    | Some (_, _, st) -> st.Tu.pruned
    | None -> Alcotest.fail "tuner found nothing"
  in
  Alcotest.(check bool) "analytic exhaustive skips" true (pruned () > 0);
  Alcotest.(check int) "cycle fidelity" 0 (pruned ~fidelity:`Cycle ());
  Alcotest.(check int) "guided search" 0
    (pruned ~search:(Hidet_sched.Search.guided_matmul ()) ())

(* A device whose shared memory admits no config: with no finite best the
   threshold stays infinite, so nothing is skipped, and the failure stays
   visible. *)
let test_no_feasible_config () =
  let dev =
    {
      dev with
      Hidet_gpu.Device.name = "no_smem";
      shared_mem_per_block = 512;
      shared_mem_per_sm = 512;
    }
  in
  let pruned = Hidet_obs.Metrics.counter "tuner.pruned" in
  let p0 = Hidet_obs.Metrics.value pruned in
  let m = 64 and n = 64 and k = 64 in
  Alcotest.(check bool) "Tuner.tune returns None" true
    (Tu.tune ~device:dev ~lower_bound:(MT.lower_bound dev ~m ~n ~k)
       ~candidates:(Space.matmul_with_split_k ~m ~n)
       ~compile:(MT.compile ~m ~n ~k) ()
    = None);
  let g = Hidet_graph.Graph.create () in
  let x = Hidet_graph.Graph.input g [ m; k ] in
  let w = Hidet_graph.Graph.constant_rand g [ k; n ] in
  Hidet_graph.Graph.set_outputs g [ Hidet_graph.Graph.matmul g x w ];
  SC.clear ();
  Alcotest.check_raises "the engine names the failure"
    (Failure "hidet: no feasible matmul schedule") (fun () ->
      ignore (HE.compile_plan dev g));
  Alcotest.(check int) "tuner.pruned" 0 (Hidet_obs.Metrics.value pruned - p0)

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

(* The instance memo: a fresh tune keeps the kernel the tuner built, and
   each later hit returns it; another [?instance] instantiates once and is
   then reused too; re-adding the entry (as a load does) drops the memo.
   Hits the memo answered plus instantiations equal hits. *)
let test_instance_memo () =
  SC.clear ();
  let candidates = List.filteri (fun i _ -> i mod 40 = 0) (Space.matmul ()) in
  let builds = ref 0 in
  let tune ?instance () =
    match
      SC.tune ~show:MT.config_to_string ?instance ~device:dev ~workload:"memo"
        ~candidates
        ~compile:(fun cfg ->
          incr builds;
          MT.compile ~m:64 ~n:64 ~k:64 cfg)
        ()
    with
    | Some (_, c, _) -> c
    | None -> Alcotest.fail "no schedule"
  in
  let reuses = Hidet_obs.Metrics.counter "schedule_cache.instance_reuses" in
  let fresh = tune () in
  builds := 0;
  let reuses0 = Hidet_obs.Metrics.value reuses and hits0 = SC.hits () in
  List.iter
    (fun c -> Alcotest.(check bool) "the tuner's kernel" true (c == fresh))
    (List.init 3 (fun _ -> tune ()));
  Alcotest.(check int) "no instantiation" 0 !builds;
  let other = List.init 3 (fun _ -> tune ~instance:"eps=0x1p-2" ()) in
  Alcotest.(check int) "another instance instantiates once" 1 !builds;
  Alcotest.(check bool) "and is shared" true
    (List.for_all (( == ) (List.hd other)) other && not (List.hd other == fresh));
  Alcotest.(check int) "reuses + builds = hits" (SC.hits () - hits0)
    (Hidet_obs.Metrics.value reuses - reuses0 + !builds);
  let device = dev.Hidet_gpu.Device.name in
  SC.add ~device ~key:"memo" (Option.get (SC.find ~device ~key:"memo"));
  Alcotest.(check bool) "a replaced entry instantiates anew" false (tune () == fresh);
  Alcotest.(check int) "once" 2 !builds;
  SC.clear ();
  ignore (tune ());
  Alcotest.(check bool) "clear drops the memo: the tuner builds" true (!builds > 2);
  SC.clear ()

(* The layernorm key omits [eps], which the kernel reads: two same-shape
   layernorms with different [eps] share a tuning entry but get distinct
   kernels, cold and warm, and the plan matches the reference. *)
let test_layernorm_eps_instances () =
  SC.clear ();
  let module G = Hidet_graph.Graph in
  let g = G.create () in
  let x = G.input g [ 4; 32 ] in
  let ln eps seed =
    G.layernorm g ~eps x ~gamma:(G.constant_rand g ~seed [ 32 ])
      ~beta:(G.constant_rand g ~seed:(seed + 1) [ 32 ])
  in
  G.set_outputs g [ ln 1e-5 1; ln 1e-2 3 ];
  let xv = Hidet_tensor.Tensor.rand ~seed:7 [ 4; 32 ] in
  let expect = Hidet_graph.Reference.run g [ (x, xv) ] in
  List.iter
    (fun pass ->
      let plan, _ = HE.compile_plan dev g in
      let layernorms =
        List.filter
          (fun (s : Hidet_runtime.Plan.step) ->
            match (G.node g s.Hidet_runtime.Plan.out_node).G.op with
            | Hidet_graph.Op.Layernorm _ -> true
            | _ -> false)
          plan.Hidet_runtime.Plan.steps
      in
      (match layernorms with
      | [ a; b ] ->
        Alcotest.(check bool) (pass ^ ": distinct kernels") false
          (C.cuda_source a.Hidet_runtime.Plan.compiled
          = C.cuda_source b.Hidet_runtime.Plan.compiled)
      | _ -> Alcotest.failf "%s: want two layernorm steps" pass);
      List.iter2
        (fun e got ->
          Alcotest.(check bool) (pass ^ ": matches the reference") true
            (Hidet_tensor.Tensor.allclose ~rtol:1e-4 ~atol:1e-5 e got))
        expect
        (Hidet_runtime.Plan.run plan [ (x, xv) ]))
    [ "cold"; "warm" ];
  Alcotest.(check int) "one tuning entry" 1 (SC.size ());
  SC.clear ()

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

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A v3 data line: the nine columns, then the MD5 of those columns. *)
let signed body = body ^ "\t" ^ Digest.to_hex (Digest.string body) ^ "\n"

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

let test_persistence_refuses_v2 () =
  (* A v2 line has no digest, so an edited key cannot be told apart from a
     genuine one: the whole file is refused and the run retunes once. *)
  with_temp_file (fun path ->
      write_file path
        "HIDET-SCHEDULE-CACHE v2\nrtx3090\tgood\t2\t10\tc\t9\t1\t13.5\t0.00025\n";
      Alcotest.(check bool) "v2 refused" true (Result.is_error (SC.load path)))

let test_persistence_rejects_foreign_and_stale () =
  with_temp_file (fun path ->
      let write = write_file path in
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
      (* Every malformed line but the last two carries a valid digest, so
         the field checks themselves are exercised. *)
      write_file path
        (String.concat ""
           [
             "HIDET-SCHEDULE-CACHE v3\n";
             signed "rtx3090\tgood\t2\t10\tc\t9\t1\t13.5\t0.00025";
             signed "rtx3090\ttruncated\t2\t10";
             signed "total garbage line";
             signed "rtx3090\tbad_index\t12\t10\tc\t9\t1\t13.5\t0.00025";
             signed "rtx3090\tv1_line\t2\t10\t9\t1\t13.5\t0.00025";
             signed "rtx3090\talso_good\t0\t4\t\t4\t0\t6\t0.001";
             "rtx3090\tunsigned\t2\t10\tc\t9\t1\t13.5\t0.00025\n";
             "rtx3090\twrong_digest\t2\t10\tc\t9\t1\t13.5\t0.00025\t"
             ^ Digest.to_hex (Digest.string "something else") ^ "\n";
           ]);
      (match SC.load path with
      | Ok n -> Alcotest.(check int) "only well-formed, signed lines load" 2 n
      | Error msg -> Alcotest.failf "load failed: %s" msg);
      match SC.find ~device:"rtx3090" ~key:"good" with
      | Some e ->
        Alcotest.(check int) "fields parsed" 2 e.SC.best_index;
        Alcotest.(check int) "trials parsed" 9 e.SC.trials
      | None -> Alcotest.fail "good entry skipped")

let test_persistence_rejects_nonfinite_floats () =
  SC.clear ();
  with_temp_file (fun path ->
      (* "nan" and "inf" parse as floats; negatives parse as ints/floats —
         all must be rejected, not loaded into the stats. *)
      write_file path
        (String.concat ""
           [
             "HIDET-SCHEDULE-CACHE v3\n";
             signed "rtx3090\tnan_sim\t2\t10\tc\t9\t1\tnan\t0.00025";
             signed "rtx3090\tnan_lat\t2\t10\tc\t9\t1\t13.5\tnan";
             signed "rtx3090\tinf_sim\t2\t10\tc\t9\t1\tinf\t0.00025";
             signed "rtx3090\tneg_sim\t2\t10\tc\t9\t1\t-13.5\t0.00025";
             signed "rtx3090\tneg_lat\t2\t10\tc\t9\t1\t13.5\t-0.00025";
             signed "rtx3090\tgood\t2\t10\tc\t9\t1\t13.5\t0.00025";
           ]);
      (match SC.load path with
      | Ok n -> Alcotest.(check int) "only the finite line loads" 1 n
      | Error msg -> Alcotest.failf "load failed: %s" msg);
      Alcotest.(check bool) "good entry present" true
        (SC.find ~device:"rtx3090" ~key:"good" <> None);
      Alcotest.(check bool) "nan entry rejected" true
        (SC.find ~device:"rtx3090" ~key:"nan_sim" = None))

(* An edited line must not load, even when it still parses. Here the key
   of a 2048x2048x64 winner is rewritten to 2048x2048x4096: the space
   depends only on (m, n), so the index/config fingerprint still matches,
   and without a line digest the k = 64 winner was served as a hit. *)
let test_persistence_rewritten_key_retunes () =
  let device = dev.Hidet_gpu.Device.name in
  let tune k =
    SC.tune ~show:MT.config_to_string ~device:dev
      ~workload:(Printf.sprintf "mm_2048x2048x%d" k)
      ~candidates:(Space.matmul_with_split_k ~m:2048 ~n:2048)
      ~compile:(fun cfg -> MT.compile ~m:2048 ~n:2048 ~k cfg)
      ()
  in
  let winner = function
    | Some (cfg, _, SC.Fresh _) -> MT.config_to_string cfg
    | Some (_, _, SC.Hit _) -> Alcotest.fail "served from the cache"
    | None -> Alcotest.fail "tune found nothing"
  in
  SC.clear ();
  let true_winner = winner (tune 4096) in
  SC.clear ();
  let k64_winner = winner (tune 64) in
  Alcotest.(check bool) "the two shapes have different winners" true
    (k64_winner <> true_winner);
  with_temp_file (fun path ->
      SC.save path;
      let rewrite line =
        match String.split_on_char '\t' line with
        | d :: "mm_2048x2048x64" :: rest ->
          String.concat "\t" (d :: "mm_2048x2048x4096" :: rest)
        | _ -> line
      in
      write_file path
        (String.concat "\n"
           (List.map rewrite (String.split_on_char '\n' (read_file path))));
      SC.clear ();
      (match SC.load path with
      | Ok n -> Alcotest.(check int) "the rewritten line is skipped" 0 n
      | Error msg -> Alcotest.failf "load failed: %s" msg);
      Alcotest.(check bool) "no entry under the rewritten key" true
        (SC.find ~device ~key:"mm_2048x2048x4096" = None);
      Alcotest.(check string) "retuned to the true winner" true_winner
        (winner (tune 4096));
      Alcotest.(check int) "no hit" 0 (SC.hits ());
      Alcotest.(check int) "no stale entry either" 0 (SC.stale ()))

(* Mutations of a saved file: flip one byte, truncate, duplicate a line,
   swap two lines, or swap two fields of a line. [load] may refuse the
   file, but every entry it does load must be an original entry under its
   original (device, key). *)
type mutation =
  | Flip of int * int
  | Truncate of int
  | Duplicate of int
  | Swap_lines of int * int
  | Swap_fields of int * int * int

let show_mutation = function
  | Flip (p, x) -> Printf.sprintf "flip byte %d ^ %d" p x
  | Truncate p -> Printf.sprintf "truncate at %d" p
  | Duplicate i -> Printf.sprintf "duplicate line %d" i
  | Swap_lines (i, j) -> Printf.sprintf "swap lines %d and %d" i j
  | Swap_fields (i, a, b) -> Printf.sprintf "swap fields %d and %d of line %d" a b i

let mutate m text =
  let len = String.length text in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let nl = Array.length lines in
  let join a = String.concat "\n" (Array.to_list a) in
  match m with
  | Flip (p, x) ->
    let b = Bytes.of_string text in
    let p = p mod len in
    Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor (1 + (x mod 255))));
    Bytes.to_string b
  | Truncate p -> String.sub text 0 (p mod (len + 1))
  | Duplicate i ->
    let i = i mod nl in
    join (Array.concat [ Array.sub lines 0 (i + 1); Array.sub lines i (nl - i) ])
  | Swap_lines (i, j) ->
    let i = i mod nl and j = j mod nl in
    let t = lines.(i) in
    lines.(i) <- lines.(j);
    lines.(j) <- t;
    join lines
  | Swap_fields (i, a, b) ->
    let i = i mod nl in
    let f = Array.of_list (String.split_on_char '\t' lines.(i)) in
    let nf = Array.length f in
    let a = a mod nf and b = b mod nf in
    let t = f.(a) in
    f.(a) <- f.(b);
    f.(b) <- t;
    lines.(i) <- String.concat "\t" (Array.to_list f);
    join lines

(* Small alphabets so neighbouring entries share devices, keys and field
   values, as a k = 64 and a k = 4096 entry of one space do. *)
let gen_entries =
  let open QCheck.Gen in
  let entry =
    let* device = oneofl [ "rtx3090"; "a100" ]
    and* key = oneofl [ "mm_64"; "mm_4096"; "mm_64#cycle"; "conv" ]
    and* space_size = int_range 1 3
    and* config = oneofl [ ""; "c"; "b64" ]
    and* trials = int_range 0 3
    and* rejected = int_range 0 3
    and* simulated_seconds = oneofl [ 0.; 1.5; 3. ]
    and* best_latency = oneofl [ 1e-4; 2.5e-4; 1.5 ] in
    let+ best_index = int_range 0 (space_size - 1) in
    ( (device, key),
      { SC.best_index; space_size; config; trials; rejected; simulated_seconds;
        best_latency } )
  in
  list_size (int_range 1 5) entry

let gen_mutation =
  let open QCheck.Gen in
  let n = int_range 0 10_000 in
  oneof
    [
      map2 (fun p x -> Flip (p, x)) n n;
      map (fun p -> Truncate p) n;
      map (fun i -> Duplicate i) n;
      map2 (fun i j -> Swap_lines (i, j)) n n;
      map3 (fun i a b -> Swap_fields (i, a, b)) n n n;
    ]

let prop_mutated_file_loads_no_wrong_entry =
  QCheck.Test.make ~name:"mutated cache file loads no wrong entry" ~count:500
    (QCheck.make
       ~print:(fun (es, m) ->
         Printf.sprintf "%d entries, %s" (List.length es) (show_mutation m))
       (QCheck.Gen.pair gen_entries gen_mutation))
    (fun (entries, m) ->
      SC.clear ();
      List.iter (fun ((device, key), e) -> SC.add ~device ~key e) entries;
      (* later adds replace earlier ones under the same key *)
      let originals =
        List.sort_uniq compare
          (List.map
             (fun ((device, key), _) ->
               ((device, key), Option.get (SC.find ~device ~key)))
             entries)
      in
      with_temp_file (fun path ->
          SC.save path;
          write_file path (mutate m (read_file path));
          SC.clear ();
          match SC.load path with
          | Error _ -> SC.size () = 0
          | Ok _ ->
            let found =
              List.filter_map
                (fun ((device, key), e) ->
                  Option.map (fun got -> got = e) (SC.find ~device ~key))
                originals
            in
            List.for_all Fun.id found && List.length found = SC.size ()))

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
  (* A guided winner is only the best of what that seed and budget
     measured: a run differing in either must tune fresh. *)
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
  List.iter
    (fun (name, search) ->
      Alcotest.(check bool) (name ^ " tunes fresh") true (tune search = `Fresh))
    [ ("seed 1", seed1); ("seed 2", seed2) ];
  List.iter
    (fun (name, search) ->
      Alcotest.(check bool) (name ^ " repeated hits") true (tune search = `Hit))
    [ ("seed 1", seed1); ("seed 2", seed2) ];
  Alcotest.(check int) "two entries" 2 (SC.size ())

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
      ( "branch-and-bound",
        [
          Alcotest.test_case "same winner, any worker count" `Quick
            test_bound_keeps_winner;
          Alcotest.test_case "analytic exhaustive only" `Quick test_bound_scope;
          Alcotest.test_case "no feasible config" `Quick test_no_feasible_config;
        ] );
      ( "schedule cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "instance memo" `Quick test_instance_memo;
          Alcotest.test_case "layernorm eps instances" `Quick
            test_layernorm_eps_instances;
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
          Alcotest.test_case "v2 refused" `Quick test_persistence_refuses_v2;
          Alcotest.test_case "foreign/stale headers" `Quick
            test_persistence_rejects_foreign_and_stale;
          Alcotest.test_case "corrupt lines skipped" `Quick
            test_persistence_skips_corrupt_lines;
          Alcotest.test_case "non-finite floats rejected" `Quick
            test_persistence_rejects_nonfinite_floats;
          Alcotest.test_case "rewritten key retunes" `Quick
            test_persistence_rewritten_key_retunes;
          QCheck_alcotest.to_alcotest prop_mutated_file_loads_no_wrong_entry;
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
