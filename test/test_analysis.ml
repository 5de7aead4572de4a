(* Differential tests for the per-candidate analyses: the single-walk
   [Traffic] analysis against the per-block reference walks in [Oracle]
   (bit for bit, on every non-tensor-core matmul candidate of two shapes,
   the tensor-core candidates of one, every kernel of the zoo's plans, a
   kernel with 70 load sites, random affine kernels with block-dependent
   bindings and random control flow and failures in indices; the zoo plan
   estimates and the walk's allocation pinned), the
   one-pass [Simplify.stmt] against the substitute-per-Let reference
   (structure and counter delta), the streaming pipeline check and the
   matmul template's allocation-free config check and names against their
   reference versions, the tuner's lower bound against the latency it
   bounds (and neither growing with the bandwidth), the floors of a cold
   zoo pass, the model's saturation tables and the floors' allocation
   pinned, modeled latencies pinned for two zoo models, the generated IR of
   a fixed corpus pinned, and every committed BENCH_*.json parsing as
   JSON. *)

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

let no_mismatches kernels =
  match List.concat_map traffic_mismatches kernels with
  | [] -> ()
  | errs ->
    Alcotest.failf "%d mismatches, first: %s" (List.length errs) (List.hd errs)

(* --- matmul candidates ------------------------------------------------------ *)

let candidate_kernels ?(tc = false) ~batch ~a_batched ~b_batched ~m ~n ~k () =
  List.concat_map
    (fun (cfg : MT.config) ->
      if cfg.MT.use_tensor_core <> tc then []
      else
        match MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg with
        | c -> c.Compiled.kernels
        | exception Invalid_argument _ -> [])
    (Space.matmul_with_split_k ~m ~n)

let test_matmul_candidates () =
  let kernels =
    candidate_kernels ~batch:1 ~a_batched:false ~b_batched:false ~m:200 ~n:96
      ~k:72 ()
    @ candidate_kernels ~batch:2 ~a_batched:true ~b_batched:true ~m:64 ~n:512
        ~k:256 ()
  in
  Alcotest.(check bool) "candidates instantiated" true (List.length kernels > 500);
  no_mismatches kernels

let test_tensor_core_candidates () =
  let kernels =
    candidate_kernels ~tc:true ~batch:1 ~a_batched:false ~b_batched:false ~m:200
      ~n:96 ~k:72 ()
  in
  Alcotest.(check int) "tensor-core candidates" 596 (List.length kernels);
  no_mismatches kernels

(* --- the kernels the zoo's plans estimate -------------------------------------

   Every kernel of the five zoo models' plans: fused prologues and
   epilogues, rule-based, row and reduce templates and split-k reduces,
   beside the matmul winners. *)

let zoo_plan_kernels = lazy (Zoo.plan_kernels dev Hidet_models.Models.all)

let test_zoo_plan_kernels () =
  let kernels = Lazy.force zoo_plan_kernels in
  Alcotest.(check int) "plan kernels" 790 (List.length kernels);
  no_mismatches kernels

(* [Perf_model.kernel] of every zoo plan kernel, folded into one MD5:
   latency, memory and compute time with %h, waves, resident blocks and
   the bottleneck note. Pinned before the single-walk analysis was made
   allocation-free; regenerate it only with an intended model change. *)
let zoo_estimate_digest = "bf3f7f4808957b1de4b22c24faec7ce6"

let test_zoo_estimate_digest () =
  let b = Stdlib.Buffer.create 65536 in
  List.iter
    (fun k ->
      let e = Hidet_gpu.Perf_model.kernel dev k in
      Printf.bprintf b "%h %h %h %d %d %s\n" e.latency e.mem_time e.compute_time
        e.waves e.blocks_per_sm e.note)
    (Lazy.force zoo_plan_kernels);
  Alcotest.(check string) "digest" zoo_estimate_digest
    (Digest.to_hex (Digest.string (Stdlib.Buffer.contents b)))

(* [k] with a dead pure [Let x = e + 1] at the top of its body ([e] is
   [blockIdx]) and at the head of every loop body ([e] is the loop's
   variable). *)
let with_dead_lets (k : Kernel.t) =
  let dead e body = Stmt.let_ (Var.fresh "dead") (Expr.add e (Expr.int 1)) body in
  let rec go (s : Stmt.t) : Stmt.t =
    match s with
    | Stmt.Seq ss -> Seq (List.map go ss)
    | For f -> For { f with body = dead (Expr.Var f.var) (go f.body) }
    | If i -> If { i with then_ = go i.then_; else_ = Option.map go i.else_ }
    | Let l -> Let { l with body = go l.body }
    | Store _ | Mma _ | Sync_threads | Comment _ -> s
  in
  { k with body = dead Expr.Block_idx (go k.body) }

(* Both latency models read the computation, not its spelling: every
   engine's tiny-model kernels, compiled twice with fresh variable and
   buffer ids minted in between, get bit-equal latencies under both
   fidelities, and every zoo plan kernel under the analytic model; so do
   the same kernels with dead pure [Let]s inserted ({!with_dead_lets}). *)
let test_estimates_ignore_ids () =
  let latencies estimate kernels =
    List.map
      (fun k -> Printf.sprintf "%h" (estimate dev k).Hidet_gpu.Perf_model.latency)
      kernels
  in
  let same what estimate (first, second) =
    Alcotest.(check (list string)) what (latencies estimate first)
      (latencies estimate second)
  in
  let dead (first, _) = (first, List.map with_dead_lets first) in
  let tiny = Zoo.twice (fun () -> Zoo.tiny_engine_kernels dev) in
  let zoo = Zoo.twice (fun () -> Zoo.plan_kernels dev Hidet_models.Models.all) in
  same "tiny, analytic" Hidet_gpu.Perf_model.kernel tiny;
  same "tiny, cycle" Hidet_cycle.Fidelity.estimate tiny;
  same "zoo plans, analytic" Hidet_gpu.Perf_model.kernel zoo;
  same "tiny with dead lets, analytic" Hidet_gpu.Perf_model.kernel (dead tiny);
  same "tiny with dead lets, cycle" Hidet_cycle.Fidelity.estimate (dead tiny);
  same "zoo plans with dead lets, analytic" Hidet_gpu.Perf_model.kernel (dead zoo)

(* The walk's allocation per [Traffic.analyze] on the distinct zoo plan
   kernels, each at the reuse window [Perf_model.kernel] gives it, measured
   at 440.70 and rounded up: a value or a closure more per expression node
   fails it. What is left is per kernel (the probe's tables and rows, the
   count record) and per site and block-dependent binding. *)
let traffic_words_budget = 460.

let test_traffic_allocation () =
  let module P = Hidet_gpu.Perf_model in
  let work =
    List.filter_map
      (fun (k : Kernel.t) ->
        let e = P.kernel dev k in
        if e.feasible then
          Some (k, P.reuse_window dev ~grid_dim:k.grid_dim ~blocks_per_sm:e.blocks_per_sm)
        else None)
      (Zoo.distinct (Lazy.force zoo_plan_kernels))
  in
  Alcotest.(check int) "distinct feasible kernels" 251 (List.length work);
  let run () =
    List.iter (fun (k, window) -> ignore (Sys.opaque_identity (Traffic.analyze ~window k))) work
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let per = (Gc.minor_words () -. before) /. float_of_int (List.length work) in
  if per > traffic_words_budget then
    Alcotest.failf "%.2f minor words per analysis, budget %g" per traffic_words_budget

(* More global load sites than a site table of the oracle holds before it
   resizes, twice: the reuse sums follow [Hashtbl.fold] over 16, 32 and 64
   buckets. The sites differ in weight and in how many blocks share a
   panel, so a sum in another order rounds differently. *)
let test_many_sites () =
  let g = Buffer.create "g" [ 1 lsl 16 ] in
  let site i =
    let r = Var.fresh "r" in
    let panel = Expr.div Expr.Block_idx (Expr.int (1 + (i mod 3))) in
    Stmt.for_ r
      (Expr.int (1 + (i mod 7)))
      (Stmt.store g [ Expr.Thread_idx ]
         (Expr.load g [ Expr.add (Expr.mul panel (Expr.int 97)) (Expr.int i) ]))
  in
  let k =
    Kernel.create ~name:"many_sites" ~params:[ g ] ~grid_dim:64 ~block_dim:32
      (Stmt.seq (List.init 70 site))
  in
  no_mismatches [ k ]

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

(* --- random index expressions: control flow and failures per block ----------

   [Let] values and load indices drawn from every operator, over the block
   id, the thread id, a loop index and earlier bindings: block-dependent
   [Select]s, [And]s and [Or]s, branches and divisions that fail on some
   blocks only, booleans, floats and loads where an int is expected. *)

let pool = Array.init 3 (fun i -> Var.fresh (Printf.sprintf "v%d" i))
let loop_var = Var.fresh "r"
let lut = Buffer.create "lut" [ 64 ]

(* An expression of [size], over the first [vars] of [pool]; a condition
   when [cond]. *)
let expr_gen ~vars =
  let open QCheck.Gen in
  let leaf =
    frequency
      ([
         (3, map Expr.int (int_range (-2) 9));
         (3, return Expr.Block_idx);
         (1, return Expr.Thread_idx);
         (1, return (Expr.var loop_var));
       ]
      @
      if vars = 0 then []
      else [ (3, map (fun i -> Expr.var pool.(i)) (int_bound (vars - 1))) ])
  in
  fix (fun self (size, cond) ->
      let sub = self (size / 2, false) and test = self (size / 2, true) in
      let compare =
        map3
          (fun op a b -> Expr.Binop (op, a, b))
          (oneofl Expr.[ Lt; Le; Gt; Ge; Eq; Ne ])
          sub sub
      in
      if size <= 0 then if cond then compare else leaf
      else if cond then
        frequency
          [
            (4, compare);
            ( 2,
              map3
                (fun op a b -> Expr.Binop (op, a, b))
                (oneofl Expr.[ And; Or ])
                test test );
            (1, map (fun a -> Expr.Unop (Not, a)) test);
            (1, map Expr.bool bool);
          ]
      else
        frequency
          [
            (2, leaf);
            ( 4,
              map3
                (fun op a b -> Expr.Binop (op, a, b))
                (oneofl Expr.[ Add; Sub; Mul; Div; Mod; Min; Max ])
                sub sub );
            (3, map3 (fun c a b -> Expr.Select (c, a, b)) test sub sub);
            (1, map2 (fun op a -> Expr.Unop (op, a)) (oneofl Expr.[ Neg; Abs ]) sub);
            (1, map (fun i -> Expr.Load (lut, [ i ])) sub);
            (1, test);
            (1, return (Expr.Float 1.5));
          ])

type control = {
  grid : int;
  values : Expr.t list;  (** bound to [pool] in order *)
  extent : Expr.t;
  indices : (Expr.t * Expr.t) list;  (** one global load site each *)
}

let control_gen =
  let open QCheck.Gen in
  let* grid = oneofl [ 3; 8; 40 ] in
  let* size = int_range 1 8 in
  let* values =
    flatten_l (List.init (Array.length pool) (fun vars -> expr_gen ~vars (size, false)))
  in
  let all = expr_gen ~vars:(Array.length pool) in
  let* extent = oneof [ map Expr.int (int_range 2 4); all (2, false) ] in
  let* indices = list_size (int_range 1 3) (pair (all (size, false)) (all (size, false))) in
  return { grid; values; extent; indices }

let show_control c =
  let show = Expr.to_string in
  Printf.sprintf "grid=%d %s; for r < %s: %s" c.grid
    (String.concat "; "
       (List.mapi (fun i e -> Printf.sprintf "v%d = %s" i (show e)) c.values))
    (show c.extent)
    (String.concat ", "
       (List.map (fun (a, b) -> Printf.sprintf "g[%s][%s]" (show a) (show b)) c.indices))

let build_control c =
  (* small dims, so flattened indices of different blocks collide *)
  let g = Buffer.create "g" [ 5; 7 ] in
  let site (a, b) =
    Stmt.store g [ Expr.Thread_idx; Expr.int 0 ] (Expr.load g [ a; b ])
  in
  let body =
    Stmt.For
      { var = loop_var; extent = c.extent; unroll = false; body = Stmt.seq (List.map site c.indices) }
  in
  let body = List.fold_right2 Stmt.let_ (Array.to_list pool) c.values body in
  Kernel.create ~name:"control" ~params:[ g ] ~grid_dim:c.grid ~block_dim:32 body

let prop_control =
  QCheck.Test.make ~name:"traffic = oracle on random control flow and failures"
    ~count:500 (QCheck.make ~print:show_control control_gen) (fun c ->
      match traffic_mismatches (build_control c) with
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
      ~k:72 ()
  in
  List.iter
    (fun (k : Kernel.t) ->
      if not (agrees k.Kernel.body) then
        Alcotest.failf "%s: Simplify.stmt disagrees with the oracle" k.Kernel.name)
    kernels

(* --- the generated IR of a fixed corpus, pinned ---------------------------------

   The CUDA text and launch dims of: every 31st candidate of each zoo
   matmul key's engine space, at that key's shape; the row and reduce
   templates at each block size; one rule-based kernel per zoo op kind;
   and each zoo model's plan. Pinned before the rewriters shared unchanged
   subtrees; a change to the templates, [Lower], [Simplify] or fusion that
   moves any kernel fails here. *)

let ir_corpus_digest = "2a942f72d031ceb9f01f61dc9d3ad8d8"

let ir_corpus () =
  let module G = Hidet_graph.Graph in
  let module Op = Hidet_graph.Op in
  let b = Stdlib.Buffer.create (1 lsl 20) in
  let kernels what (ks : Kernel.t list) =
    Printf.bprintf b "%s\n" what;
    List.iter
      (fun (k : Kernel.t) ->
        Printf.bprintf b "%d %d\n%s\n" k.grid_dim k.block_dim
          (Hidet_ir.Cuda_codegen.kernel k))
      ks
  in
  let compiled what f =
    match f () with
    | (c : Compiled.t) -> kernels what c.kernels
    | exception Invalid_argument msg -> Printf.bprintf b "%s: %s\n" what msg
  in
  List.iter
    (fun { Zoo.batch; a_batched; b_batched; m; n; k } ->
      Array.iteri
        (fun i cfg ->
          if i mod 31 = 0 then
            compiled (MT.config_to_string cfg) (fun () ->
                MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg))
        (Hidet.Hidet_engine.matmul_space Hidet.Hidet_engine.default_options ~m
           ~n))
    (Zoo.matmuls dev Hidet_models.Models.all);
  Array.iter
    (fun (cfg : Hidet_sched.Reduce_template.config) ->
      let block_size = cfg.block_size in
      compiled "softmax" (fun () ->
          Hidet_sched.Row_templates.softmax ~block_size ~rows:96 ~cols:131 ());
      compiled "layernorm" (fun () ->
          Hidet_sched.Row_templates.layernorm ~block_size ~rows:7 ~cols:768 ());
      compiled "reduce" (fun () ->
          Hidet_sched.Reduce_template.schedule ~config:cfg
            (Op.to_def Op.Global_avg_pool [ [ 2; 40; 7; 7 ] ])))
    Hidet_sched.Reduce_template.space;
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (_, make) ->
      let g = make () in
      List.iter
        (fun (node : G.node) ->
          let kind = Op.name node.op in
          if not (Hashtbl.mem seen kind) then
            match Op.to_def node.op (List.map (G.node_shape g) node.inputs) with
            | def ->
              Hashtbl.add seen kind ();
              compiled kind (fun () -> Hidet_sched.Rule_based.schedule def)
            | exception Invalid_argument _ -> ())
        (G.nodes g))
    Hidet_models.Models.all;
  Hidet_sched.Schedule_cache.clear ();
  List.iter
    (fun (name, make) ->
      let plan, _ = Hidet.Hidet_engine.compile_plan dev (make ()) in
      Printf.bprintf b "%s\n%s\n" name (Hidet_runtime.Plan.cuda_source plan);
      List.iter
        (fun (s : Hidet_runtime.Plan.step) ->
          List.iter
            (fun (k : Kernel.t) -> Printf.bprintf b "%d %d\n" k.grid_dim k.block_dim)
            s.compiled.kernels)
        plan.steps)
    Hidet_models.Models.all;
  Hidet_sched.Schedule_cache.clear ();
  Stdlib.Buffer.contents b

let test_ir_corpus () =
  Alcotest.(check string) "digest" ir_corpus_digest
    (Digest.to_hex (Digest.string (ir_corpus ())))

(* --- the streaming pipeline check ----------------------------------------------- *)

let same_stages (k : Kernel.t) =
  Hidet_gpu.Pipeline.has_overlap_pattern k.body
  = Oracle.has_overlap_pattern k.body
  && Hidet_gpu.Pipeline.effective_stages k = Oracle.effective_stages k

let test_stages_template () =
  (* Every config of two zoo shapes' spaces (a bert FFN and a resnet50
     implicit-GEMM conv): both core kinds, split-k and 1-4 stages, so both
     verdicts of the check. *)
  let kernels ~a_batched ~b_batched ~m ~n ~k =
    List.concat_map
      (fun cfg ->
        match MT.compile ~a_batched ~b_batched ~m ~n ~k cfg with
        | c -> c.Compiled.kernels
        | exception Invalid_argument _ -> [])
      (Space.matmul_with_split_k ~m ~n)
  in
  let kernels =
    kernels ~a_batched:true ~b_batched:false ~m:128 ~n:3072 ~k:768
    @ kernels ~a_batched:false ~b_batched:true ~m:2048 ~n:49 ~k:1024
  in
  let pipelined =
    List.filter (fun k -> Hidet_gpu.Pipeline.effective_stages k > 1) kernels
  in
  Alcotest.(check bool) "both verdicts" true
    (pipelined <> [] && List.length pipelined < List.length kernels);
  List.iter
    (fun (k : Kernel.t) ->
      if not (same_stages k) then
        Alcotest.failf "%s: effective_stages disagrees with the oracle"
          k.Kernel.name)
    kernels

(* Random fuzzer cases: rule-based kernels of generated definitions and
   template kernels of sampled configs at random shapes. *)
let prop_stages_random =
  QCheck.Test.make ~name:"effective_stages = oracle on generated kernels"
    ~count:100
    QCheck.(pair (0 -- 1000) (0 -- 1000))
    (fun (seed, i) ->
      let module Gen = Hidet_check.Gen in
      let kernels =
        match Gen.gen_case (Random.State.make [| seed; i |]) ~max_size:8 with
        | Gen.C_def { spec; _ } -> (
          match Hidet_sched.Rule_based.schedule (Gen.build_def spec) with
          | c -> c.Compiled.kernels
          | exception Invalid_argument _ -> [])
        | Gen.C_matmul { batch; m; n; k; n_cfgs; _ } ->
          List.concat_map
            (fun cfg -> (MT.compile ~batch ~m ~n ~k cfg).Compiled.kernels)
            (Space.sample_matmul (Random.State.make [| seed; i |]) n_cfgs)
        | Gen.C_conv _ | Gen.C_graph _ -> []
      in
      List.for_all same_stages kernels)

(* --- allocation-free template checks ------------------------------------------- *)

let test_config_names () =
  (* One shape per split-k class. *)
  List.iter
    (fun (m, n) ->
      List.iter
        (fun cfg ->
          Alcotest.(check string) "config_to_string = Printf oracle"
            (Oracle.config_to_string cfg) (MT.config_to_string cfg))
        (Space.matmul_with_split_k ~m ~n))
    [ (4096, 4096); (1024, 512); (64, 64) ]

let test_check_product () =
  (* Rejected configs included: a zero tile, warp tiles that do not divide
     or break the core kind's multiples, too many warps, out-of-range
     split-k and depths, and loads no mapping covers. *)
  let ( let* ) l f = List.concat_map f l in
  let tiles = [ 16; 32; 64; 128 ] and warps = [ 4; 8; 12; 16; 32; 64; 128 ] in
  let configs =
    let* block_m = tiles in
    let* block_n = tiles in
    let* block_k = 0 :: 4 :: tiles in
    let* warp_m = warps in
    let* warp_n = warps in
    let* stages = [ 0; 1; 2; 3; 4; 5 ] in
    let* split_k = [ 0; 1; 2; 16; 17 ] in
    let* use_tensor_core = [ false; true ] in
    [
      {
        MT.block_m;
        block_n;
        block_k;
        warp_m;
        warp_n;
        stages;
        split_k;
        use_tensor_core;
        swizzle = false;
      };
    ]
  in
  let outcomes = Hashtbl.create 16 in
  List.iter
    (fun cfg ->
      let want = Oracle.check cfg in
      Hashtbl.replace outcomes want ();
      if MT.check cfg <> want then
        Alcotest.failf "%s: check disagrees" (Oracle.config_to_string cfg))
    configs;
  (* Ok and each of the eleven rejection reasons. *)
  Alcotest.(check int) "distinct outcomes" 12 (Hashtbl.length outcomes)

(* --- the tuner's lower bound ----------------------------------------------------

   [Matmul_template.lower_bound] may skip a candidate only if it never
   exceeds the candidate's analytic latency: checked on every candidate of
   the full space (tensor-core and split-k configs included) for every
   matmul the zoo tunes, and for random shapes on both devices. The bound's
   exact terms are closed forms, so the same walks check each against the
   instantiated kernels: [MT.syncs] against the barriers [Traffic] counts
   in the main kernel, [MT.regs_per_thread] against its registers,
   [MT.block_reuse] against [Traffic.block_reuse] at the window
   [Perf_model.kernel] uses, and the memoised [MT.reduce_latency] against
   the estimate of the split-k reduce kernel. The walks also check a
   metamorphic property of the model: every operation in it is monotone in
   the bandwidth, so on a device with twice the [mem_bandwidth] neither a
   kernel's latency nor the floor may grow. *)

(* The worst bound / latency ratio over a shape's full space, failing on
   the first candidate whose bound exceeds its latency or whose closed
   forms differ from its kernels. [seen] gets every instantiated config. *)
let bound_ratio ?(seen = ignore) dev ~batch ~a_batched ~b_batched ~m ~n ~k =
  let lower_bound = MT.lower_bound ~batch ~a_batched ~b_batched dev ~m ~n ~k in
  let fast =
    { dev with mem_bandwidth = 2. *. dev.Hidet_gpu.Device.mem_bandwidth }
  in
  let fast_bound = MT.lower_bound ~batch ~a_batched ~b_batched fast ~m ~n ~k in
  let block_reuse = MT.block_reuse ~batch ~a_batched ~b_batched ~m ~n ~k in
  let reduce_latency = MT.reduce_latency dev ~batch ~m ~n in
  let space = Array.of_list (Space.matmul_with_split_k ~m ~n) in
  let bounds = lower_bound space and fast_bounds = fast_bound space in
  Array.fold_left
    (fun worst (i, (cfg : MT.config)) ->
      match MT.compile ~batch ~a_batched ~b_batched ~m ~n ~k cfg with
      | exception Invalid_argument _ -> worst
      | c ->
        let fail fmt =
          Alcotest.failf
            ("%s %dx%dx%dx%d a_batched=%b b_batched=%b %s: " ^^ fmt)
            dev.Hidet_gpu.Device.name batch m n k a_batched b_batched
            (MT.config_to_string cfg)
        in
        let main = List.hd c.Compiled.kernels in
        let syncs = (Traffic.kernel main).syncs in
        if syncs <> float_of_int (MT.syncs ~k cfg) then
          fail "%g barriers, MT.syncs %d" syncs (MT.syncs ~k cfg);
        let regs = Kernel.regs_per_thread main in
        if regs <> MT.regs_per_thread cfg then
          fail "%d registers, MT.regs_per_thread %d" regs (MT.regs_per_thread cfg);
        (match
           Hidet_gpu.Perf_model.blocks_per_sm_limit dev
             ~block_dim:main.Kernel.block_dim ~smem:(Kernel.shared_bytes main)
             ~regs
         with
        | Error _ -> ()
        | Ok blocks_per_sm ->
          let window =
            Hidet_gpu.Perf_model.reuse_window dev
              ~grid_dim:main.Kernel.grid_dim ~blocks_per_sm
          in
          let want = Traffic.block_reuse ~window main in
          let got = block_reuse cfg ~window in
          if not (got >= want && got <= want *. (1. +. 1e-12)) then
            fail "window %d: reuse %h, MT.block_reuse %h" window want got);
        (match c.Compiled.kernels with
        | [ _; reduce ] ->
          let want = (Hidet_gpu.Perf_model.kernel dev reduce).latency in
          let got = reduce_latency cfg.split_k in
          if not (Float.equal got want) then
            fail "reduce latency %h, MT.reduce_latency %h" want got
        | _ -> ());
        seen cfg;
        let lat = Compiled.latency dev c in
        let bound = bounds.(i) in
        if not (bound <= lat) then fail "bound %h > latency %h" bound lat;
        List.iter
          (fun (kern : Kernel.t) ->
            let slow = (Hidet_gpu.Perf_model.kernel dev kern).latency in
            let quick = (Hidet_gpu.Perf_model.kernel fast kern).latency in
            if not (quick <= slow) then
              fail "%s: latency %h at twice the bandwidth, %h at once" kern.name
                quick slow)
          c.Compiled.kernels;
        let quick = fast_bounds.(i) in
        if not (quick <= bound) then
          fail "bound %h at twice the bandwidth, %h at once" quick bound;
        if lat < infinity then Float.max worst (bound /. lat) else worst)
    0. (Array.mapi (fun i cfg -> (i, cfg)) space)

let test_bound_zoo () =
  let shapes = Zoo.matmuls dev Hidet_models.Models.all in
  Alcotest.(check int) "distinct zoo matmuls" 84 (List.length shapes);
  let classes = Hashtbl.create 16 in
  let seen ~batch ~a_batched ~b_batched (cfg : MT.config) =
    Hashtbl.replace classes
      ( (cfg.use_tensor_core, cfg.split_k, cfg.stages, cfg.swizzle),
        (batch > 1 && a_batched, batch > 1 && b_batched) )
      ()
  in
  let worst =
    List.fold_left
      (fun worst { Zoo.batch; a_batched; b_batched; m; n; k } ->
        Float.max worst
          (bound_ratio
             ~seen:(seen ~batch ~a_batched ~b_batched)
             dev ~batch ~a_batched ~b_batched ~m ~n ~k))
      0. shapes
  in
  (* The checks cover both core kinds, every depth, the swizzled launch
     order, both batched operands and every split-k factor. *)
  List.iter
    (fun (name, covered) ->
      Alcotest.(check bool) name true
        (Hashtbl.fold (fun key () acc -> acc || covered key) classes false))
    ([
       ("tensor-core configs", fun ((tc, _, _, _), _) -> tc);
       ("CUDA-core configs", fun ((tc, _, _, _), _) -> not tc);
       ("swizzled configs", fun ((_, _, _, swz), _) -> swz);
       ("batched-A shapes", fun (_, (a, _)) -> a);
       ("batched-B shapes", fun (_, (_, b)) -> b);
     ]
    @ List.map
        (fun d ->
          (Printf.sprintf "%d-stage configs" d, fun ((_, _, s, _), _) -> s = d))
        [ 1; 2; 3; 4 ]
    @ List.map
        (fun f ->
          ( Printf.sprintf "split-k %d configs" f,
            fun ((_, sk, _, _), _) -> sk = f ))
        [ 2; 4; 8 ]);
  (* Tight enough to prune: the best candidates come within 0.1%. *)
  Alcotest.(check bool) "some bound within 0.1% of its latency" true
    (worst > 0.999)

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

(* A block of no threads has no occupancy, and a launch with no resident
   block has no floor: [infinity], not a [Division_by_zero]. *)
let test_zero_block () =
  List.iter
    (fun block_dim ->
      (match
         Hidet_gpu.Perf_model.blocks_per_sm_limit dev ~block_dim ~smem:0 ~regs:0
       with
      | Error _ -> ()
      | Ok bps -> Alcotest.failf "block_dim %d: %d resident blocks" block_dim bps);
      Alcotest.(check (float 0.))
        (Printf.sprintf "floor at block_dim %d" block_dim)
        infinity
        (Hidet_gpu.Perf_model.lower_bounds dev 1
           (fun _ (l : Hidet_gpu.Perf_model.launch) _ ->
             l.grid <- 1;
             l.block_dim <- block_dim;
             l.blocks_per_sm <- 0;
             l.stages <- 1)).(0))
    [ 0; -32 ]

(* --- the floors of a cold zoo pass, pinned ---------------------------------

   Every floor a cold zoo compile pass computes: each model compiled on an
   empty cache, and for each of its matmul keys the engine's space (the
   CUDA-core configs, split-k included) in space order. The floors' bits
   are folded into one digest, so a floor that drifts fails here even when
   no winner moves; the same keys' full spaces (tensor-core configs
   included) on the a100 cover the other device and core kind. Regenerate
   the digests only with an intended model change. *)

let pass_spaces =
  lazy
    (let by_class = Hashtbl.create 3 in
     (* Each space once, with its terms, as the engine keeps them. *)
     let spaces (mm : Zoo.matmul) =
       let split_k_class = Space.split_k_class ~m:mm.m ~n:mm.n in
       match Hashtbl.find_opt by_class split_k_class with
       | Some s -> s
       | None ->
         let space ~tc =
           let configs =
             Array.of_list
               (List.filter
                  (fun (c : MT.config) -> tc || not c.MT.use_tensor_core)
                  (Space.matmul_with_split_k ~m:mm.m ~n:mm.n))
           in
           (configs, MT.terms configs)
         in
         let s = (space ~tc:false, space ~tc:true) in
         Hashtbl.add by_class split_k_class s;
         s
     in
     List.map
       (fun mm ->
         let engine, full = spaces mm in
         (mm, engine, full))
       (Zoo.cold_pass dev Hidet_models.Models.all))

(* One pass of floors on [d], over the engine spaces or the full ones. *)
let pass_floors d ~full =
  List.map
    (fun ({ Zoo.batch; a_batched; b_batched; m; n; k }, engine, all) ->
      let configs, terms = if full then all else engine in
      MT.lower_bound ~batch ~a_batched ~b_batched ~terms d ~m ~n ~k configs)
    (Lazy.force pass_spaces)

let test_floor_digest () =
  List.iter
    (fun (name, d, full, count, digest) ->
      let floors = pass_floors d ~full in
      Alcotest.(check int) (name ^ ": floors") count
        (List.fold_left (fun acc a -> acc + Array.length a) 0 floors);
      Alcotest.(check string) (name ^ ": digest") digest
        (Printf.sprintf "%Lx"
           (List.fold_left
              (Array.fold_left (fun h x ->
                   Int64.(add (mul h 0x100000001b3L) (bits x))))
              0L floors)))
    [
      ("rtx3090 engine spaces", dev, false, 51192, "13ecac25a08e4599");
      ( "a100 full spaces", Hidet_gpu.Device.a100, true, 84112,
        "c43e510641901bbe" );
    ]

(* The model reads its saturations from a table: bit for bit [sat_curve]
   of the resident threads over three quarters of the device's saturation
   threads (memory) or all of them (compute), at every count an SM can
   hold. *)
let test_saturation_tables () =
  let module P = Hidet_gpu.Perf_model in
  List.iter
    (fun (d : Hidet_gpu.Device.t) ->
      let sat = float_of_int d.saturation_threads_per_sm in
      for r = 0 to d.max_threads_per_sm do
        let want_mem = P.sat_curve (float_of_int r /. (0.75 *. sat)) in
        let want_comp = P.sat_curve (float_of_int r /. sat) in
        if
          not
            (same_float (P.mem_saturation d r) want_mem
            && same_float (P.comp_saturation d r) want_comp)
        then
          Alcotest.failf "%s, %d resident threads: table differs from sat_curve"
            d.name r
      done)
    Hidet_gpu.Device.[ rtx3090; a100 ]

(* The floor path's minor allocation per candidate over one warm pass
   (each space's terms, its occupancy and the saturation tables already
   built), measured at 17.29 and rounded up: a boxed float or a closure
   more per floor fails it. The floors' loop allocates nothing per
   candidate; the reuses' closed forms and the reduce kernels make up the
   rest, and the per-key arrays are too long for the minor heap. *)
let floor_words_budget = 18.

let test_floor_allocation () =
  ignore (pass_floors dev ~full:false);
  let before = Gc.minor_words () in
  let floors = pass_floors dev ~full:false in
  let words = Gc.minor_words () -. before in
  let count = List.fold_left (fun acc a -> acc + Array.length a) 0 floors in
  let per = words /. float_of_int count in
  if per > floor_words_budget then
    Alcotest.failf "%.2f minor words per floor, budget %g" per floor_words_budget

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
          Alcotest.test_case "tensor-core candidates = oracle" `Quick
            test_tensor_core_candidates;
          Alcotest.test_case "zoo plan kernels = oracle" `Quick
            test_zoo_plan_kernels;
          Alcotest.test_case "zoo plan estimates pinned" `Quick
            test_zoo_estimate_digest;
          Alcotest.test_case "estimates read the computation, not its ids"
            `Quick test_estimates_ignore_ids;
          Alcotest.test_case "traffic allocation budget" `Quick
            test_traffic_allocation;
          Alcotest.test_case "sites past two table resizes" `Quick test_many_sites;
          QCheck_alcotest.to_alcotest prop_random_kernels;
          QCheck_alcotest.to_alcotest prop_control;
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
          Alcotest.test_case "IR corpus pinned" `Quick test_ir_corpus;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "template kernels = oracle" `Quick
            test_stages_template;
          QCheck_alcotest.to_alcotest prop_stages_random;
        ] );
      ( "template checks",
        [
          Alcotest.test_case "config names = oracle" `Quick test_config_names;
          Alcotest.test_case "check = oracle on a product" `Quick
            test_check_product;
        ] );
      ( "lower bound",
        [
          Alcotest.test_case "every zoo candidate" `Quick test_bound_zoo;
          QCheck_alcotest.to_alcotest prop_bound_random;
          Alcotest.test_case "zero block size" `Quick test_zero_block;
          Alcotest.test_case "cold zoo pass floors pinned" `Quick
            test_floor_digest;
          Alcotest.test_case "saturation tables = sat_curve" `Quick
            test_saturation_tables;
          Alcotest.test_case "floor allocation budget" `Quick
            test_floor_allocation;
        ] );
      ( "pinned",
        [ Alcotest.test_case "Plan.latency bert, resnet50" `Quick test_pinned_latency ] );
      ("bench files", [ Alcotest.test_case "BENCH_*.json parse" `Quick test_bench_files_parse ]);
    ]
