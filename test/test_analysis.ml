(* Differential tests for the per-candidate analyses: the single-walk
   [Traffic] analysis against the per-block reference walks in [Oracle]
   (bit for bit, on every non-tensor-core matmul candidate of two shapes
   and on random affine kernels with block-dependent bindings), the
   one-pass [Simplify.stmt] against the substitute-per-Let reference
   (structure and counter delta), the tuner's lower bound against the
   latency it bounds, modeled latencies pinned for two zoo models, and
   every committed BENCH_*.json parsing as JSON. *)

module Buffer = Hidet_ir.Buffer
module Expr = Hidet_ir.Expr
module Kernel = Hidet_ir.Kernel
module Simplify = Hidet_ir.Simplify
module Stmt = Hidet_ir.Stmt
module Var = Hidet_ir.Var
module Traffic = Hidet_gpu.Traffic
module MT = Hidet_sched.Matmul_template
module Space = Hidet_sched.Space
module Compiled = Hidet_sched.Compiled
module Metrics = Hidet_obs.Metrics
module Json = Hidet_obs.Json

let dev = Hidet_gpu.Device.rtx3090
let bits = Int64.bits_of_float
let same_float a b = Int64.equal (bits a) (bits b)

let same_counts (a : Traffic.counts) (b : Traffic.counts) =
  same_float a.global_load_bytes b.global_load_bytes
  && same_float a.global_store_bytes b.global_store_bytes
  && same_float a.global_ld_transactions b.global_ld_transactions
  && same_float a.shared_bytes b.shared_bytes
  && same_float a.flops b.flops
  && same_float a.mma_flops b.mma_flops
  && same_float a.syncs b.syncs

let windows = [ 1; 2; 5; 8; 16 ]

(* Every disagreement with the oracles, as a printable line. *)
let traffic_mismatches (k : Kernel.t) =
  let counts = Oracle.kernel k in
  let check ok what = if ok then [] else [ k.Kernel.name ^ ": " ^ what ] in
  check (same_counts (Traffic.kernel k) counts) "Traffic.kernel"
  @ List.concat_map
      (fun window ->
        let got = Traffic.analyze ~window k
        and want = Oracle.block_reuse ~window k in
        check (same_counts got.counts counts)
          (Printf.sprintf "counts at window %d" window)
        @ check (same_float got.reuse want)
            (Printf.sprintf "reuse at window %d = %h, oracle %h" window
               got.reuse want)
        @ check
            (same_float (Traffic.block_reuse ~window k) want)
            (Printf.sprintf "Traffic.block_reuse ~window:%d" window))
      windows

(* --- matmul candidates ------------------------------------------------------ *)

let candidate_kernels ~batch ~a_batched ~b_batched ~m ~n ~k =
  List.concat_map
    (fun (cfg : MT.config) ->
      if cfg.MT.use_tensor_core then []
      else
        match MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg with
        | c -> c.Compiled.kernels
        | exception Invalid_argument _ -> [])
    (Space.matmul_with_split_k ~m ~n)

let test_matmul_candidates () =
  let kernels =
    candidate_kernels ~batch:1 ~a_batched:false ~b_batched:false ~m:200 ~n:96
      ~k:72
    @ candidate_kernels ~batch:2 ~a_batched:true ~b_batched:true ~m:64 ~n:512
        ~k:256
  in
  Alcotest.(check bool) "candidates instantiated" true (List.length kernels > 500);
  match List.concat_map traffic_mismatches kernels with
  | [] -> ()
  | errs ->
    Alcotest.failf "%d mismatches, first: %s" (List.length errs) (List.hd errs)

(* --- random affine kernels with block-dependent bindings --------------------- *)

(* Per-site index terms on top of the affine pattern: multiples of the
   block-derived bindings, an optional term that fails to evaluate on one
   block or on every block, a shift that makes indices negative (so they
   can collide with the numbers given to unknown sites) and an optional
   indirect load. *)
type term = {
  d : int;
  e : int;
  g : int;
  fail_on : int option;
  fail_always : bool;
  shift : int;
  indirect : bool;
}

type case = {
  base : int * bool * Affine.spec list;
  grid : int;
  p : int;
  fail_let : int;
  var_extent : bool;
  terms : term list;
}

let term_gen =
  let open QCheck.Gen in
  let* d = oneofl [ 0; 1; 16 ] in
  let* e = oneofl [ 0; 1; 64 ] in
  let* g = oneofl [ 0; 0; 1 ] in
  let* fail_on = opt ~ratio:0.3 (int_range 0 6) in
  let* fail_always = map (fun n -> n = 0) (int_range 0 6) in
  let* shift = oneofl [ 0; 0; -1; -3 ] in
  let* indirect = map (fun n -> n = 0) (int_range 0 4) in
  return { d; e; g; fail_on; fail_always; shift; indirect }

let case_gen =
  let open QCheck.Gen in
  let* base = Affine.kernel_gen in
  let* grid = oneofl [ 1; 3; 8; 16; 40 ] in
  let* p = oneofl [ 1; 2; 4 ] in
  let* fail_let = int_range 0 6 in
  let* var_extent = bool in
  let* terms = list_repeat 4 term_gen in
  return { base; grid; p; fail_let; var_extent; terms }

let show_term t =
  Printf.sprintf "%d*bx+%d*by+%d*q%s%s%+d%s" t.d t.e t.g
    (match t.fail_on with
    | Some b -> Printf.sprintf "+64/(bid-%d)" b
    | None -> "")
    (if t.fail_always then "+1/0" else "")
    t.shift
    (if t.indirect then "+g[bid]" else "")

let show c =
  Printf.sprintf "%s grid=%d p=%d fail_let=%d var_extent=%b terms=[%s]"
    (Affine.show_case c.base) c.grid c.p c.fail_let c.var_extent
    (String.concat "; " (List.map show_term c.terms))

let build c =
  let open Expr in
  let bx = Var.fresh "bx" and by = Var.fresh "by" and q = Var.fresh "q" in
  let z = Var.fresh "z" and h = Var.fresh "h" and r = Var.fresh "r" in
  let lut = Buffer.create "lut" [ 64 ] in
  let lets =
    [
      (bx, modulo Block_idx (int c.p));
      (by, div Block_idx (int c.p));
      (* fails on block [fail_let]: the binding then reads as 0 there *)
      (q, div (int 6) (sub Block_idx (int c.fail_let)));
      (* fails on every block *)
      (z, Binop (Div, int 1, int 0));
      (h, select (lt Block_idx (int 2)) (float 2.5) (int 1));
      (r, add (mul (var bx) (int 3)) (var by));
    ]
  in
  let offset n =
    let t = List.nth c.terms (n mod List.length c.terms) in
    let fail =
      match t.fail_on with
      | Some b -> div (int 64) (sub Block_idx (int b))
      | None -> int 0
    in
    let indirect = if t.indirect then load lut [ modulo Block_idx (int 64) ] else int 0 in
    List.fold_left add (int t.shift)
      [
        mul (int t.d) (var bx);
        mul (int t.e) (var by);
        mul (int t.g) (var q);
        fail;
        (if t.fail_always then Binop (Div, int 1, int 0) else int 0);
        var z;
        mul (var h) (int 2);
        var r;
        indirect;
      ]
  in
  let extent = if c.var_extent then Some (add (var r) (int 1)) else None in
  Affine.build_kernel ~grid_dim:c.grid ~lets ~offset ?extent c.base

let prop_random_kernels =
  QCheck.Test.make ~name:"traffic = oracle on random block-dependent kernels"
    ~count:400 (QCheck.make ~print:show case_gen) (fun c ->
      match traffic_mismatches (build c) with
      | [] -> true
      | e :: _ -> QCheck.Test.fail_report e)

(* --- the two exception cases, by hand ----------------------------------------- *)

let one_site_kernel ~grid ~lets index =
  let g = Buffer.create "g" [ 4096 ] in
  let body =
    List.fold_right
      (fun (v, e) acc -> Stmt.let_ v e acc)
      lets
      (Stmt.store g [ Expr.Thread_idx ] (Expr.load g [ index ]))
  in
  Kernel.create ~name:"one_site" ~params:[ g ] ~grid_dim:grid ~block_dim:32 body

let test_failing_let_reads_zero () =
  (* q = 1 / (bid - 1) over blocks 0..3 is -1, <fails>, 1, 0. Read as 0 on
     block 1, the panels are -1, 0, 1, 0: the best prefix ratio is 4/3 (four
     blocks, three panels). Had the failure made the index unknown on block
     1 instead, its number -1 would collide with block 0's panel and blocks
     0-1 alone would give 2. *)
  let q = Var.fresh "q" in
  let k =
    one_site_kernel ~grid:4
      ~lets:[ (q, Expr.div (Expr.int 1) (Expr.sub Expr.Block_idx (Expr.int 1))) ]
      (Expr.var q)
  in
  Alcotest.(check (float 0.)) "oracle" (4. /. 3.) (Oracle.block_reuse ~window:4 k);
  Alcotest.(check (float 0.)) "single walk" (4. /. 3.)
    (Traffic.block_reuse ~window:4 k)

let test_unknown_site_numbering () =
  (* Unknown indices are numbered -1, -2, ... in block-major site order,
     and those numbers share a table with real (negative) values. Site A =
     bid / 0 fails on every block; site B = 1 / bid - 3 fails on block 0
     and reads -2 on block 1. Block-major numbering gives A -1 and B -2 on
     block 0, then A -3 on block 1, so B's two blocks share one panel:
     naive 8 bytes, union (2 + 1) * 4 / 2 = 6 bytes, reuse 4/3. Numbering
     site by site would give B -3 on block 0 and no reuse at all. *)
  let g = Buffer.create "g" [ 4096 ] in
  let open Expr in
  let a = Binop (Div, Block_idx, int 0) in
  let b = sub (div (int 1) Block_idx) (int 3) in
  let body =
    Stmt.seq
      [
        Stmt.store g [ Thread_idx ] (load g [ a ]);
        Stmt.store g [ Thread_idx ] (load g [ b ]);
      ]
  in
  let k = Kernel.create ~name:"unknowns" ~params:[ g ] ~grid_dim:4 ~block_dim:32 body in
  Alcotest.(check (float 0.)) "oracle" (4. /. 3.) (Oracle.block_reuse ~window:2 k);
  Alcotest.(check (float 0.)) "single walk" (4. /. 3.)
    (Traffic.block_reuse ~window:2 k);
  List.iter
    (fun window ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "window %d" window)
        (Oracle.block_reuse ~window k)
        (Traffic.block_reuse ~window k))
    [ 3; 4 ]

(* --- Simplify.stmt against the substitute-per-Let reference -------------------- *)

let simplified = Metrics.counter "ir.nodes_simplified"

let with_delta f =
  let c0 = Metrics.value simplified in
  let r = f () in
  (r, Metrics.value simplified - c0)

let stmt_gen =
  let open QCheck.Gen in
  let out = Buffer.create "out" [ 64 ] and src = Buffer.create "src" [ 64 ] in
  let smem = Buffer.create ~scope:Buffer.Shared "smem" [ 16; 16 ] in
  let frag = Buffer.create ~scope:Buffer.Warp "frag" [ 16; 16 ] in
  let rec expr scope n =
    let leaf =
      oneof
        ([
           map Expr.int (int_range (-2) 6);
           return Expr.Thread_idx;
           return Expr.Block_idx;
         ]
        @ if scope = [] then [] else [ map Expr.var (oneofl scope) ])
    in
    if n = 0 then leaf
    else
      let sub = expr scope (n / 2) in
      frequency
        [
          (3, leaf);
          ( 4,
            map3
              (fun op a b -> Expr.Binop (op, a, b))
              (oneofl Expr.[ Add; Sub; Mul; Div; Mod; Min; Max ])
              sub sub );
          (1, map (fun a -> Expr.Binop (Sub, a, a)) sub);
          (1, map (fun a -> Expr.Binop (Max, a, a)) sub);
          ( 1,
            map3
              (fun a c1 c2 ->
                Expr.Binop (Add, Expr.Binop (Add, a, Expr.Int c1), Expr.Int c2))
              sub (int_range 0 3) (int_range 0 3) );
          ( 1,
            map3
              (fun a c1 c2 ->
                Expr.Binop (Mul, Expr.Binop (Mul, a, Expr.Int c1), Expr.Int c2))
              sub (int_range 0 3) (int_range 0 3) );
          ( 1,
            map2
              (fun a c ->
                Expr.Binop (Mod, Expr.Binop (Mod, a, Expr.Int c), Expr.Int c))
              sub (int_range 1 4) );
          ( 1,
            map3
              (fun c a b -> Expr.Select (Expr.Binop (Lt, c, Expr.Int 2), a, b))
              sub sub
              (frequency [ (1, sub); (1, return (Expr.Int 0)) ]) );
          (1, map (fun a -> Expr.Select (Expr.Bool true, a, a)) sub);
          (1, map (fun a -> Expr.Load (src, [ a ])) sub);
          (1, map (fun a -> Expr.Unop (Neg, a)) sub);
        ]
  in
  let rec stmt scope n =
    let store =
      map2 (fun i v -> Stmt.Store { buf = out; indices = [ i ]; value = v })
        (expr scope 4) (expr scope 4)
    in
    if n = 0 then store
    else
      let sub = stmt scope (n / 2) in
      frequency
        [
          (3, store);
          ( 4,
            let* value =
              frequency
                [
                  (2, map Expr.int (int_range 0 5));
                  (1, return (Expr.Float 1.5));
                  (1, return Expr.Thread_idx);
                  (1, return Expr.Block_idx);
                  ( 1,
                    if scope = [] then return (Expr.Int 1)
                    else map Expr.var (oneofl scope) );
                  (3, expr scope 4);
                ]
            in
            let v = Var.fresh "x" in
            let+ body = stmt (v :: scope) (n - 1) in
            Stmt.Let { var = v; value; body } );
          ( 2,
            let* extent =
              oneof
                ([ return (Expr.Int 1); return (Expr.Int 3); return (Expr.Int 0) ]
                @ if scope = [] then [] else [ map Expr.var (oneofl scope) ])
            in
            let* unroll = bool in
            let v = Var.fresh "i" in
            let+ body = stmt (v :: scope) (n - 1) in
            Stmt.For { var = v; extent; unroll; body } );
          ( 1,
            let* cond =
              oneof
                [
                  return (Expr.Bool true);
                  return (Expr.Bool false);
                  map2 (fun a b -> Expr.Binop (Lt, a, b)) (expr scope 2)
                    (expr scope 2);
                ]
            in
            let* then_ = sub in
            let+ else_ = opt sub in
            Stmt.If { cond; then_; else_ } );
          (2, map (fun ss -> Stmt.Seq ss) (list_size (int_range 0 3) sub));
          (1, return Stmt.Sync_threads);
          (1, return (Stmt.Comment "c"));
          ( 1,
            let+ a = expr scope 2 and+ b = expr scope 2 in
            Stmt.Mma
              {
                m = 16;
                n = 16;
                k = 8;
                a = smem;
                a_off = [ a; Expr.Int 0 ];
                b = smem;
                b_off = [ Expr.Int 0; b ];
                c = frag;
                c_off = [ Expr.Binop (Add, a, Expr.Int 0); Expr.Int 0 ];
              } );
        ]
  in
  stmt [] 8

let agrees s =
  let want, dw = with_delta (fun () -> Oracle.simplify_stmt s) in
  let got, dg = with_delta (fun () -> Simplify.stmt s) in
  compare got want = 0 && dg = dw

let prop_simplify_oracle =
  QCheck.Test.make ~name:"one-pass Simplify.stmt = substitute-per-Let oracle"
    ~count:500 (QCheck.make ~print:Stmt.to_string stmt_gen) agrees

let test_simplify_template_bodies () =
  (* Template bodies are already simplified, but still carry non-trivial
     Lets, predicates and loops for both versions to walk. *)
  let kernels =
    candidate_kernels ~batch:1 ~a_batched:false ~b_batched:false ~m:96 ~n:40
      ~k:72
  in
  List.iter
    (fun (k : Kernel.t) ->
      if not (agrees k.Kernel.body) then
        Alcotest.failf "%s: Simplify.stmt disagrees with the oracle" k.Kernel.name)
    kernels

(* --- the tuner's lower bound ----------------------------------------------------

   [Matmul_template.lower_bound] may skip a candidate only if it never
   exceeds the candidate's analytic latency: checked on every candidate of
   the full space (tensor-core and split-k configs included) for every
   matmul the zoo tunes, and for random shapes on both devices. *)

(* The worst bound / latency ratio over a shape's full space, failing on
   the first candidate whose bound exceeds its latency. *)
let bound_ratio dev ~batch ~a_batched ~b_batched ~m ~n ~k =
  List.fold_left
    (fun worst (cfg : MT.config) ->
      match MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg with
      | exception Invalid_argument _ -> worst
      | c ->
        let lat = Compiled.latency dev c in
        let bound = MT.lower_bound dev ~batch ~m ~n ~k cfg in
        if not (bound <= lat) then
          Alcotest.failf "%s %dx%dx%dx%d %s: bound %h > latency %h"
            dev.Hidet_gpu.Device.name batch m n k (MT.config_to_string cfg)
            bound lat;
        if lat < infinity then Float.max worst (bound /. lat) else worst)
    0. (Space.matmul_with_split_k ~m ~n)

let test_bound_zoo () =
  let shapes = Zoo.matmuls dev Hidet_models.Models.all in
  Alcotest.(check int) "distinct zoo matmuls" 84 (List.length shapes);
  let worst =
    List.fold_left
      (fun worst { Zoo.batch; a_batched; b_batched; m; n; k } ->
        Float.max worst (bound_ratio dev ~batch ~a_batched ~b_batched ~m ~n ~k))
      0. shapes
  in
  (* Tight enough to prune: the best candidates come within 10%. *)
  Alcotest.(check bool) "some bound within 10% of its latency" true (worst > 0.9)

let prop_bound_random =
  let gen =
    let open QCheck.Gen in
    let* dev = oneofl Hidet_gpu.Device.[ rtx3090; a100 ] in
    let* batch = int_range 1 16 in
    let* a_batched = bool and* b_batched = bool in
    let* m = int_range 1 4096 and* n = int_range 1 4096 and* k = int_range 1 4096 in
    return (dev, batch, a_batched, b_batched, m, n, k)
  in
  let print (dev, batch, a, b, m, n, k) =
    Printf.sprintf "%s batch=%d a_batched=%b b_batched=%b %dx%dx%d"
      dev.Hidet_gpu.Device.name batch a b m n k
  in
  QCheck.Test.make ~name:"lower bound <= latency on random shapes" ~count:20
    (QCheck.make ~print gen)
    (fun (dev, batch, a_batched, b_batched, m, n, k) ->
      bound_ratio dev ~batch ~a_batched ~b_batched ~m ~n ~k <= 1.)

(* --- pinned modeled latencies ------------------------------------------------- *)

(* Plan.latency of a cold analytic compile, printed with %h. Any change to
   the latency model, the schedule space or the analyses feeding them moves
   these; regenerate them only with an intended model change. *)
let pinned = [ ("bert", "0x1.db340b45eb54ap-9"); ("resnet50", "0x1.ae4cbb6d35a51p-10") ]

let test_pinned_latency () =
  List.iter
    (fun (name, want) ->
      Hidet_sched.Schedule_cache.clear ();
      let g = (List.assoc name Hidet_models.Models.all) () in
      let plan, _ = Hidet.Hidet_engine.compile_plan dev g in
      Alcotest.(check string) name want
        (Printf.sprintf "%h" (Hidet_runtime.Plan.latency dev plan)))
    pinned;
  Hidet_sched.Schedule_cache.clear ()

(* --- committed bench results --------------------------------------------------- *)

let test_bench_files_parse () =
  (* The test runs in _build/default/test; dune copies the committed
     BENCH_*.json files next to it (see the deps in test/dune). *)
  let files =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check bool) "BENCH_compile.json present" true
    (List.mem "BENCH_compile.json" files);
  List.iter
    (fun f ->
      let text = In_channel.with_open_bin (Filename.concat ".." f) In_channel.input_all in
      match Json.parse text with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" f msg)
    files

let () =
  Alcotest.run "analysis"
    [
      ( "traffic",
        [
          Alcotest.test_case "matmul candidates = oracle" `Quick
            test_matmul_candidates;
          QCheck_alcotest.to_alcotest prop_random_kernels;
          Alcotest.test_case "failing let reads 0" `Quick
            test_failing_let_reads_zero;
          Alcotest.test_case "unknown sites numbered block-major" `Quick
            test_unknown_site_numbering;
        ] );
      ( "simplify",
        [
          QCheck_alcotest.to_alcotest prop_simplify_oracle;
          Alcotest.test_case "template bodies = oracle" `Quick
            test_simplify_template_bodies;
        ] );
      ( "lower bound",
        [
          Alcotest.test_case "every zoo candidate" `Quick test_bound_zoo;
          QCheck_alcotest.to_alcotest prop_bound_random;
        ] );
      ( "pinned",
        [ Alcotest.test_case "Plan.latency bert, resnet50" `Quick test_pinned_latency ] );
      ("bench files", [ Alcotest.test_case "BENCH_*.json parse" `Quick test_bench_files_parse ]);
    ]
