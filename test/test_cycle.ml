(* Tests for the cycle-approximate fidelity model: coalescing segments and
   bank-conflict degrees, the capped-vs-uncapped trace exact-match property
   on affine kernels, the LRU cache model, warp-scheduler monotonicity, the
   opt-in contract (analytic estimates unchanged), the domain-safe space
   memo and Traffic.block_reuse edge cases. *)

module Access = Hidet_cycle.Access
module Cache = Hidet_cycle.Cache_model
module WS = Hidet_cycle.Warp_sched
module Fid = Hidet_cycle.Fidelity
module PM = Hidet_gpu.Perf_model
module Traffic = Hidet_gpu.Traffic
module MT = Hidet_sched.Matmul_template
module Space = Hidet_sched.Space
module Buffer = Hidet_ir.Buffer
module Var = Hidet_ir.Var
module Expr = Hidet_ir.Expr
module Stmt = Hidet_ir.Stmt
module Kernel = Hidet_ir.Kernel

let dev = Hidet_gpu.Device.rtx3090

(* --- coalescing and bank conflicts ---------------------------------------- *)

let test_segments () =
  let seg = Access.segments ~line:128 in
  (* 32 consecutive f32 lanes: one 128-byte segment. *)
  Alcotest.(check int) "unit stride" 1
    (seg (List.init 32 (fun l -> 4 * l)));
  (* stride 2: 256 bytes -> 2 segments. *)
  Alcotest.(check int) "stride 2" 2
    (seg (List.init 32 (fun l -> 8 * l)));
  (* stride 32 floats = one line per lane. *)
  Alcotest.(check int) "fully strided" 32
    (seg (List.init 32 (fun l -> 128 * l)));
  (* broadcast: all lanes on one address. *)
  Alcotest.(check int) "broadcast" 1 (seg (List.init 32 (fun _ -> 4)));
  (* translation invariance: shifting all addresses keeps the count. *)
  Alcotest.(check int) "translation invariant" 2
    (seg (List.init 32 (fun l -> 1_000_000 + (8 * l))))

let test_conflict_degree () =
  let cd = Access.conflict_degree in
  Alcotest.(check int) "unit stride free" 1
    (cd (List.init 32 (fun l -> 4 * l)));
  (* stride 32 words: every lane hits bank 0 with a distinct word. *)
  Alcotest.(check int) "32-way" 32
    (cd (List.init 32 (fun l -> 128 * l)));
  (* stride 2 words: 2 lanes per bank. *)
  Alcotest.(check int) "2-way" 2 (cd (List.init 32 (fun l -> 8 * l)));
  (* broadcast of one word is conflict-free. *)
  Alcotest.(check int) "broadcast free" 1 (cd (List.init 32 (fun _ -> 64)))

(* --- capped vs uncapped trace: exact on affine kernels --------------------- *)

(* The random affine kernels come from [Affine], shared with the analysis
   tests. Their loops run 5x the generated extent (5..20 iterations), so
   most cross the cap of 8 that [Access.analyze] uses. *)

let prop_capped_matches_uncapped =
  QCheck.Test.make ~name:"capped trace = uncapped trace on affine kernels"
    ~count:300
    (QCheck.make ~print:Affine.show_case Affine.kernel_gen)
    (fun ((ext, _, _) as case) ->
      let k = Affine.build_kernel ~extent:(Expr.int (5 * ext)) case in
      let capped = Access.traced_sites ~loop_cap:8 k in
      let full = Access.traced_sites k in
      (* Loop-uniform patterns: the scaled-back counts of 8 iterations are
         those of all of them, bit for bit. *)
      capped.Access.sites = full.Access.sites
      && capped.Access.main_trips = full.Access.main_trips)

let test_zero_trip () =
  let k =
    Affine.build_kernel
      (1, false, [ { Affine.glb = true; store = false; a = 1; b = 0; c = 0 } ])
  in
  let g = List.hd k.Kernel.params in
  let j = Var.fresh "j" in
  (* Stmt.for_ folds extent-0 loops away; build the node directly so the
     walker sees a genuine zero-trip loop. *)
  let dead =
    Stmt.For
      {
        var = j;
        extent = Expr.int 0;
        unroll = false;
        body = Stmt.store g [ Expr.var j ] (Expr.float 0.);
      }
  in
  let live = (Access.traced_sites k).Access.sites in
  let tr =
    Access.traced_sites (Kernel.map_body (fun b -> Stmt.seq [ dead; b ]) k)
  in
  (* A loop that never runs still yields its body's site, at zero weight,
     and leaves the other sites as they were. *)
  Alcotest.(check int) "one more site" (List.length live + 1)
    (List.length tr.Access.sites);
  Alcotest.(check (float 0.)) "zero-trip weight" 0.
    (List.hd tr.Access.sites).Access.weight;
  Alcotest.(check bool) "other sites unchanged" true
    (List.tl tr.Access.sites = live);
  (* A triangular nest: the inner loop is zero-trip on the first outer
     pass only. The shared store after it keeps its own site on every
     pass, so it sees all 4 executions. *)
  let s = Buffer.create ~scope:Buffer.Shared "s" [ 32 ] in
  let i = Var.fresh "i" and j = Var.fresh "j" in
  let body =
    Stmt.for_ i (Expr.int 4)
      (Stmt.seq
         [
           Stmt.For
             {
               var = j;
               extent = Expr.var i;
               unroll = false;
               body = Stmt.store g [ Expr.var j ] (Expr.float 0.);
             };
           Stmt.store s [ Expr.var i ] (Expr.float 0.);
         ])
  in
  let tri =
    Access.traced_sites
      (Kernel.create ~name:"tri" ~params:[ g ] ~grid_dim:1 ~block_dim:32 body)
  in
  match tri.Access.sites with
  | [ inner; after ] ->
    Alcotest.(check bool) "inner is the global store" true
      (inner.Access.kind = Access.Global_store);
    Alcotest.(check (float 0.)) "inner runs 0+1+2+3 times" 6.
      inner.Access.weight;
    Alcotest.(check bool) "after is the shared store" true
      (after.Access.kind = Access.Shared_store);
    Alcotest.(check (float 0.)) "after runs 4 times" 4. after.Access.weight
  | l -> Alcotest.failf "triangular nest: %d sites, expected 2" (List.length l)

(* --- cache model ---------------------------------------------------------- *)

let test_cache_lru () =
  let g = { Cache.size = 2 * 128; line = 128; ways = 2 } in
  (* one set, 2 ways: [0;1;0;1] all fit; adding 2 evicts LRU (0). *)
  let s = Cache.simulate g [| 0; 1; 0; 1; 2; 0 |] in
  Alcotest.(check int) "accesses" 6 s.Cache.accesses;
  (* hits: second 0, second 1; 2 misses; final 0 was evicted by 2. *)
  Alcotest.(check int) "hits" 2 s.Cache.hits;
  let s', misses = Cache.simulate_through g [| 0; 1; 0; 1; 2; 0 |] in
  Alcotest.(check int) "through = simulate" s.Cache.hits s'.Cache.hits;
  Alcotest.(check (list int)) "miss stream" [ 0; 1; 2; 0 ]
    (Array.to_list misses);
  (* a stream that fits is all hits after the cold pass *)
  let big = { Cache.size = 64 * 128; line = 128; ways = 4 } in
  let stream = Array.init 64 (fun i -> i mod 8) in
  let s2 = Cache.simulate big stream in
  Alcotest.(check int) "fits: only cold misses" (64 - 8) s2.Cache.hits

(* --- warp scheduler ------------------------------------------------------- *)

let base_work =
  {
    WS.iters = 8;
    mem_txn_per_iter = 4.;
    dram_frac = 0.5;
    l2_frac = 0.25;
    tail_mem_txn = 4.;
    smem_cycles_per_iter = 16.;
    compute_cycles_per_iter = 64.;
    tail_compute_cycles = 32.;
    sync_cycles_per_iter = 8.;
    stages = 1;
    warps = 8;
    mem_issue_cycles = 2.;
    dram_service_cycles = 19.;
    l2_service_cycles = 6.;
    l1_latency = 30.;
    l2_latency = 200.;
    dram_latency = 400.;
  }

let test_warp_sched_monotone () =
  let c w = (WS.simulate w).WS.cycles in
  (* Deeper pipelines can only help: prefetch gating is relaxed. *)
  Alcotest.(check bool) "stages hide latency" true
    (c { base_work with WS.stages = 3 } <= c base_work);
  (* More resident warps means more total work on the SM: completion of
     the whole resident set cannot get faster. *)
  Alcotest.(check bool) "more warps, more cycles" true
    (c { base_work with WS.warps = 16 } >= c base_work);
  (* More warps overlap better: 2x the warps must cost < 2x the cycles
     while there is latency left to hide. *)
  Alcotest.(check bool) "latency hiding" true
    (c { base_work with WS.warps = 16 } < 2. *. c base_work);
  (* Positive, finite, deterministic. *)
  let x = c base_work in
  Alcotest.(check bool) "finite" true (Float.is_finite x && x > 0.);
  Alcotest.(check (float 0.)) "deterministic" x (c base_work)

(* --- opt-in contract ------------------------------------------------------ *)

let template () = MT.compile ~m:256 ~n:256 ~k:256 MT.default_config
let template_kernels () = (template ()).Hidet_sched.Compiled.kernels

let sum_latency estimate =
  List.fold_left
    (fun acc k -> acc +. (estimate dev k).PM.latency)
    0. (template_kernels ())

let test_analytic_unchanged () =
  (* With analytic fidelity (explicit or default), latencies are exactly
     the analytic model's: the cycle subsystem must not perturb them. *)
  let base = sum_latency PM.kernel in
  Alcotest.(check (float 0.)) "explicit analytic" base
    (Hidet_sched.Compiled.latency ~fidelity:`Analytic dev (template ()));
  Alcotest.(check (float 0.)) "default fidelity" base
    (Hidet_sched.Compiled.latency dev (template ()));
  Alcotest.(check (float 0.)) "cycle fidelity is the cycle model"
    (sum_latency Fid.estimate)
    (Hidet_sched.Compiled.latency ~fidelity:`Cycle dev (template ()))

let test_cycle_estimate_sane () =
  List.iter
    (fun k ->
      let e, x = Fid.kernel dev k in
      Alcotest.(check bool) "feasible" true e.PM.feasible;
      Alcotest.(check bool) "finite positive latency" true
        (Float.is_finite e.PM.latency && e.PM.latency > 0.);
      Alcotest.(check bool) "coalescing derived" true
        (x.Fid.txn_per_access >= 1.);
      Alcotest.(check bool) "conflicts derived" true
        (x.Fid.conflict_factor >= 1.);
      Alcotest.(check bool) "hit rates in range" true
        (x.Fid.l1_hit >= 0. && x.Fid.l1_hit <= 1. && x.Fid.l2_hit >= 0.
       && x.Fid.l2_hit <= 1.);
      (* K = 256 spans 32 tiles of block_k = 8: the main loop is found. *)
      Alcotest.(check bool) "main loop found" true
        ((Access.analyze k).Access.main_trips >= 2.))
    (template_kernels ())

(* --- the cycle floor -------------------------------------------------------- *)

module Tu = Hidet_sched.Tuner
module C = Hidet_sched.Compiled

(* [None] when the template rejects the config; else (floor, latency). *)
let floor_and_latency ?(batch = 1) ?(a_batched = true) ?(b_batched = false)
    ~m ~n ~k cfg =
  match MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg with
  | exception Invalid_argument _ -> None
  | c ->
    Some
      ( (Tu.cycle_lower_bound dev ~compile:Fun.id [| c |]).(0),
        C.latency ~fidelity:`Cycle dev c )

(* Every distinct zoo matmul's space, sampled at a stride; the offset
   moves with the shape, so together the samples reach the whole space. *)
let test_cycle_floor_zoo () =
  let stride = 397 in
  let checked = ref 0 in
  List.iteri
    (fun i { Zoo.batch; a_batched; b_batched; m; n; k } ->
      List.iteri
        (fun j cfg ->
          if j mod stride = i * 37 mod stride then
            match floor_and_latency ~batch ~a_batched ~b_batched ~m ~n ~k cfg with
            | None -> ()
            | Some (floor, lat) ->
              incr checked;
              if not (floor <= lat) then
                Alcotest.failf "%dx%dx%dx%d %s: cycle floor %h > latency %h"
                  batch m n k (MT.config_to_string cfg) floor lat)
        (Space.matmul_with_split_k ~m ~n))
    (Zoo.matmuls dev Hidet_models.Models.all);
  Alcotest.(check bool)
    (Printf.sprintf "%d zoo candidates checked" !checked)
    true (!checked > 100)

let prop_cycle_floor_random =
  QCheck.Test.make ~name:"cycle floor <= cycle latency on random shapes"
    ~count:40
    QCheck.(
      quad (int_range 1 600) (int_range 1 600) (int_range 1 1200) small_nat)
    (fun (m, n, k, pick) ->
      let space = Array.of_list (Space.matmul_with_split_k ~m ~n) in
      match floor_and_latency ~m ~n ~k space.(pick * 7919 mod Array.length space) with
      | None -> true
      | Some (floor, lat) -> floor <= lat)

(* More device bandwidth never slows a kernel down under the cycle model
   either: on a device with twice the [mem_bandwidth], neither a kernel's
   cycle latency nor its cycle floor grows. Checked on a strided sample of
   the zoo's matmul candidates (both kernels of a split-k config), an
   offset that moves with the shape. *)
let test_cycle_bandwidth_monotone () =
  let stride = 1601 in
  let fast = { dev with mem_bandwidth = 2. *. dev.mem_bandwidth } in
  let checked = ref 0 in
  List.iteri
    (fun i { Zoo.batch; a_batched; b_batched; m; n; k } ->
      List.iteri
        (fun j cfg ->
          if j mod stride = i * 53 mod stride then
            match MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg with
            | exception Invalid_argument _ -> ()
            | c ->
              List.iter
                (fun (kern : Kernel.t) ->
                  incr checked;
                  let fail what slow quick =
                    Alcotest.failf
                      "%dx%dx%dx%d %s, %s: cycle %s %h at twice the bandwidth, %h at once"
                      batch m n k (MT.config_to_string cfg) kern.name what quick slow
                  in
                  let slow = (Fid.estimate dev kern).PM.latency
                  and quick = (Fid.estimate fast kern).PM.latency in
                  if not (quick <= slow) then fail "latency" slow quick;
                  let slow = Fid.lower_bound dev kern
                  and quick = Fid.lower_bound fast kern in
                  if not (quick <= slow) then fail "floor" slow quick)
                c.C.kernels)
        (Space.matmul_with_split_k ~m ~n))
    (Zoo.matmuls dev Hidet_models.Models.all);
  Alcotest.(check bool)
    (Printf.sprintf "%d zoo kernels checked" !checked)
    true (!checked > 50)

(* --- domain-safe space memo ----------------------------------------------- *)

let test_space_concurrent_forcing () =
  (* Four domains race the first forcing; all must get the same (physically
     equal) list. Before the memo was domain-safe this raised
     Lazy.Undefined or CamlinternalLazy.Undefined under contention. *)
  let domains =
    Array.init 4 (fun _ -> Domain.spawn (fun () -> Space.matmul ()))
  in
  let results = Array.map Domain.join domains in
  let first = results.(0) in
  Alcotest.(check bool) "non-empty" true (List.length first > 0);
  Array.iter
    (fun r -> Alcotest.(check bool) "physically equal" true (r == first))
    results;
  Alcotest.(check bool) "later calls hit the memo" true
    (Space.matmul () == first)

(* --- Traffic.block_reuse edge cases --------------------------------------- *)

let test_block_reuse_edges () =
  let k = List.hd (template_kernels ()) in
  (* window larger than the grid: still well-defined and within [1, w]. *)
  let w_big = 10 * k.Kernel.grid_dim in
  let r = Traffic.block_reuse ~window:w_big k in
  Alcotest.(check bool) "window > grid in range" true
    (r >= 1. && r <= float_of_int w_big);
  (* single-block grid: no cross-block sharing, reuse is exactly 1. *)
  let k1 = MT.compile ~m:64 ~n:64 ~k:64 MT.default_config in
  let single =
    List.find (fun k -> k.Kernel.grid_dim = 1)
      k1.Hidet_sched.Compiled.kernels
  in
  Alcotest.(check (float 1e-9)) "single block" 1.
    (Traffic.block_reuse ~window:8 single);
  (* monotone non-decreasing in the window: a larger window can only add
     sharing partners. *)
  let prev = ref 0. in
  for w = 1 to 12 do
    let r = Traffic.block_reuse ~window:w k in
    Alcotest.(check bool)
      (Printf.sprintf "monotone at window %d" w)
      true (r >= !prev);
    prev := r
  done

let () =
  Alcotest.run "cycle"
    [
      ( "access",
        [
          Alcotest.test_case "coalescing segments" `Quick test_segments;
          Alcotest.test_case "bank conflicts" `Quick test_conflict_degree;
          QCheck_alcotest.to_alcotest prop_capped_matches_uncapped;
          Alcotest.test_case "zero-trip loops" `Quick test_zero_trip;
        ] );
      ("cache", [ Alcotest.test_case "set-assoc LRU" `Quick test_cache_lru ]);
      ( "warp scheduler",
        [ Alcotest.test_case "monotonicity" `Quick test_warp_sched_monotone ] );
      ( "fidelity",
        [
          Alcotest.test_case "analytic unchanged" `Quick
            test_analytic_unchanged;
          Alcotest.test_case "cycle estimate sane" `Quick
            test_cycle_estimate_sane;
        ] );
      ( "cycle floor",
        [
          Alcotest.test_case "every zoo matmul space" `Quick test_cycle_floor_zoo;
          Alcotest.test_case "twice the bandwidth is never slower" `Quick
            test_cycle_bandwidth_monotone;
          QCheck_alcotest.to_alcotest prop_cycle_floor_random;
        ] );
      ( "space",
        [
          Alcotest.test_case "concurrent forcing" `Quick
            test_space_concurrent_forcing;
        ] );
      ( "block reuse",
        [ Alcotest.test_case "edge cases" `Quick test_block_reuse_edges ] );
    ]
