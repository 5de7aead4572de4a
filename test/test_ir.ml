(* Tests for the tensor-program IR: expression smart constructors, the
   simplifier (with a property test that simplification preserves
   evaluation), substitution, the verifier and the CUDA code generator. *)

open Hidet_ir

let e_int = Alcotest.testable Expr.pp Expr.equal

(* --- smart constructors ------------------------------------------------ *)

let test_constant_folding () =
  Alcotest.check e_int "add" (Expr.int 7) (Expr.add (Expr.int 3) (Expr.int 4));
  Alcotest.check e_int "mul" (Expr.int 12) (Expr.mul (Expr.int 3) (Expr.int 4));
  Alcotest.check e_int "div trunc" (Expr.int 2) (Expr.div (Expr.int 7) (Expr.int 3));
  Alcotest.check e_int "mod" (Expr.int 1) (Expr.modulo (Expr.int 7) (Expr.int 3));
  Alcotest.check e_int "min" (Expr.int 3) (Expr.min_ (Expr.int 3) (Expr.int 4));
  Alcotest.check e_int "max" (Expr.int 4) (Expr.max_ (Expr.int 3) (Expr.int 4));
  Alcotest.check e_int "large" (Expr.int 100_000) (Expr.mul (Expr.int 1000) (Expr.int 100));
  (* Constants in [-1, 256] are shared, folded ones included. *)
  Alcotest.(check bool) "small constants shared" true
    (Expr.int 7 == Expr.add (Expr.int 3) (Expr.int 4)
    && Expr.int (-1) == Expr.neg (Expr.int 1)
    && Expr.int 256 == Expr.sub (Expr.int 300) (Expr.int 44))

let test_identities () =
  let v = Expr.var (Var.fresh "x") in
  Alcotest.check e_int "x+0" v (Expr.add v (Expr.int 0));
  Alcotest.check e_int "0+x" v (Expr.add (Expr.int 0) v);
  Alcotest.check e_int "x*1" v (Expr.mul v (Expr.int 1));
  Alcotest.check e_int "x*0" (Expr.int 0) (Expr.mul v (Expr.int 0));
  Alcotest.check e_int "x/1" v (Expr.div v (Expr.int 1));
  Alcotest.check e_int "x%1" (Expr.int 0) (Expr.modulo v (Expr.int 1));
  Alcotest.check e_int "x-0" v (Expr.sub v (Expr.int 0))

let test_bool_folding () =
  let v = Expr.var (Var.fresh "c") in
  Alcotest.check e_int "true&&c" v (Expr.and_ (Expr.bool true) v);
  Alcotest.check e_int "false&&c" (Expr.bool false) (Expr.and_ (Expr.bool false) v);
  Alcotest.check e_int "false||c" v (Expr.or_ (Expr.bool false) v);
  Alcotest.check e_int "not not c" v (Expr.not_ (Expr.not_ v));
  Alcotest.check e_int "select true" (Expr.int 1)
    (Expr.select (Expr.bool true) (Expr.int 1) (Expr.int 2))

let test_subst () =
  let x = Var.fresh "x" and y = Var.fresh "y" in
  let e = Expr.add (Expr.var x) (Expr.mul (Expr.var y) (Expr.var x)) in
  let e' = Expr.subst x (Expr.int 2) e in
  Alcotest.check e_int "subst" (Expr.add (Expr.int 2) (Expr.mul (Expr.var y) (Expr.int 2))) e'

let test_free_vars () =
  let x = Var.fresh "x" and y = Var.fresh "y" in
  let e = Expr.add (Expr.var x) (Expr.mul (Expr.var y) (Expr.var x)) in
  Alcotest.(check int) "two free vars" 2 (List.length (Expr.free_vars e));
  Alcotest.(check bool) "x first" true (Var.equal x (List.hd (Expr.free_vars e)))

(* --- evaluation --------------------------------------------------------- *)

let const_env =
  {
    Expr.lookup = (fun _ -> Expr.V_int 0);
    load = (fun _ _ -> Expr.V_float 0.);
    thread_idx = 5;
    block_idx = 2;
  }

let test_eval_indices () =
  Alcotest.(check int) "tid" 5 (Expr.eval_int const_env Expr.Thread_idx);
  Alcotest.(check int) "bid" 2 (Expr.eval_int const_env Expr.Block_idx);
  let e = Expr.Binop (Expr.Add, Expr.Thread_idx, Expr.Int 10) in
  Alcotest.(check int) "tid+10" 15 (Expr.eval_int const_env e)

let test_eval_float_intrinsics () =
  let check name expected e =
    Alcotest.(check (float 1e-6)) name expected (Expr.eval_float const_env e)
  in
  check "exp" (exp 1.) (Expr.Unop (Expr.Exp, Expr.Float 1.));
  check "sqrt" 3. (Expr.Unop (Expr.Sqrt, Expr.Float 9.));
  check "tanh" (tanh 0.5) (Expr.Unop (Expr.Tanh, Expr.Float 0.5));
  Alcotest.(check (float 1e-4)) "erf(1)" 0.8427
    (Expr.eval_float const_env (Expr.Unop (Expr.Erf, Expr.Float 1.)))

(* --- simplifier property: evaluation is preserved ----------------------- *)

let arb_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Expr.Int n) (int_range (-20) 20);
        map (fun f -> Expr.Float (float_of_int f /. 4.)) (int_range (-40) 40);
        return Expr.Thread_idx;
        return Expr.Block_idx;
      ]
  in
  let rec gen n =
    if n = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 4,
            let op =
              oneofl
                [ Expr.Add; Expr.Sub; Expr.Mul; Expr.Min; Expr.Max ]
            in
            map3 (fun op a b -> Expr.Binop (op, a, b)) op (gen (n / 2)) (gen (n / 2)) );
          ( 1,
            map3
              (fun c a b ->
                Expr.Select (Expr.Binop (Expr.Lt, c, Expr.Int 0), a, b))
              (gen (n / 2)) (gen (n / 2)) (gen (n / 2)) );
        ]
  in
  QCheck.make ~print:Expr.to_string (gen 6)

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves evaluation" ~count:500 arb_expr
    (fun e ->
      let v1 = Expr.eval const_env e in
      let v2 = Expr.eval const_env (Simplify.expr e) in
      Expr.float_of_value v1 = Expr.float_of_value v2
      || Float.abs (Expr.float_of_value v1 -. Expr.float_of_value v2) < 1e-9)

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"simplify is idempotent" ~count:300 arb_expr (fun e ->
      let s = Simplify.expr e in
      Expr.equal s (Simplify.expr s))

(* --- the rewriters share what they do not change ------------------------ *)

(* Raw trees over two variables, a load, the unary operators and every
   binary one: [smart] rebuilds one through the smart constructors. *)
let x_var = Var.fresh "x" and y_var = Var.fresh "y"
let src = Buffer.create "src" [ 8; 8 ]

let arb_raw_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Expr.Int n) (int_range (-2) 3);
        map (fun f -> Expr.Float (float_of_int f)) (int_range 0 2);
        map (fun b -> Expr.Bool b) bool;
        return (Expr.Var x_var);
        return (Expr.Var y_var);
        return Expr.Thread_idx;
      ]
  in
  let rec gen n =
    if n = 0 then leaf
    else
      let sub = gen (n / 2) in
      frequency
        [
          (2, leaf);
          ( 4,
            map3
              (fun op a b -> Expr.Binop (op, a, b))
              (oneofl
                 Expr.[ Add; Sub; Mul; Div; Mod; Min; Max; Lt; Le; Eq; And; Or ])
              sub sub );
          ( 1,
            map2 (fun op a -> Expr.Unop (op, a)) (oneofl Expr.[ Neg; Not; Exp; Abs ]) sub
          );
          (1, map3 (fun c a b -> Expr.Select (c, a, b)) sub sub sub);
          (1, map2 (fun i j -> Expr.Load (src, [ i; j ])) sub sub);
          (1, map (fun a -> Expr.Binop (Sub, a, a)) sub);
        ]
  in
  QCheck.make ~print:Expr.to_string (gen 8)

let rec smart (e : Expr.t) =
  match e with
  | Binop (op, a, b) -> Expr.binop op (smart a) (smart b)
  | Unop (op, a) -> Expr.unop op (smart a)
  | Select (c, a, b) -> Expr.select (smart c) (smart a) (smart b)
  | Load (buf, idx) -> Expr.load buf (List.map smart idx)
  | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> e

let prop_subst_shares =
  QCheck.Test.make ~name:"subst of an absent variable returns its argument"
    ~count:500 arb_raw_expr (fun raw ->
      let e = smart raw in
      Expr.subst (Var.fresh "z") (Expr.int 7) e == e
      && Expr.map_loads (fun _ _ -> None) e == e)

let prop_simplify_shares =
  QCheck.Test.make ~name:"simplify returns its argument when nothing changes"
    ~count:500 arb_raw_expr (fun raw ->
      List.for_all
        (fun e ->
          let s = Simplify.expr e in
          (not (Expr.equal s e)) || s == e)
        [ raw; smart raw ])

(* --- statement simplification ------------------------------------------- *)

let test_stmt_simplify () =
  let buf = Buffer.create "out" [ 8 ] in
  let i = Var.fresh "i" in
  (* for i in range(1): out[i] = i  ==>  out[0] = 0 *)
  let s =
    Stmt.for_ i (Expr.int 1) (Stmt.store buf [ Expr.var i ] (Expr.var i))
  in
  (match s with
  | Stmt.Store { indices = [ Expr.Int 0 ]; value = Expr.Int 0; _ } -> ()
  | _ -> Alcotest.fail "trivial loop not collapsed");
  (* extent-0 loop vanishes *)
  let s0 = Stmt.for_ (Var.fresh "j") (Expr.int 0) Stmt.sync in
  Alcotest.(check bool) "empty loop" true (s0 = Stmt.nop)

let test_let_inlining () =
  let buf = Buffer.create "out" [ 8 ] in
  let x = Var.fresh "x" in
  let s =
    Stmt.let_ x (Expr.int 3) (Stmt.store buf [ Expr.var x ] (Expr.var x))
  in
  match Simplify.stmt s with
  | Stmt.Store { indices = [ Expr.Int 3 ]; value = Expr.Int 3; _ } -> ()
  | other -> Alcotest.failf "let not inlined: %s" (Stmt.to_string other)

(* --- unrolling ------------------------------------------------------------ *)

let run_small kernel bindings = Hidet_gpu.Interp.run kernel bindings

let test_unroll_expands () =
  let out = Buffer.create "out" [ 4 ] in
  let i = Var.fresh "i" in
  let s =
    Stmt.for_ ~unroll:true i (Expr.int 4)
      (Stmt.store out [ Expr.var i ] (Expr.mul (Expr.var i) (Expr.int 2)))
  in
  let u = Unroll.stmt s in
  Alcotest.(check int) "no loops left" 0
    (Stmt.count (function Stmt.For _ -> true | _ -> false) u);
  Alcotest.(check int) "four stores" 4
    (Stmt.count (function Stmt.Store _ -> true | _ -> false) u)

let test_unroll_respects_threshold () =
  let out = Buffer.create "out" [ 64 ] in
  let i = Var.fresh "i" in
  let s =
    Stmt.for_ ~unroll:true i (Expr.int 64)
      (Stmt.store out [ Expr.var i ] (Expr.var i))
  in
  Alcotest.(check int) "large loop kept" 1
    (Stmt.count (function Stmt.For _ -> true | _ -> false) (Unroll.stmt s));
  Alcotest.(check int) "custom threshold expands" 0
    (Stmt.count
       (function Stmt.For _ -> true | _ -> false)
       (Unroll.stmt ~threshold:64 s))

let test_unroll_keeps_unmarked () =
  let out = Buffer.create "out" [ 4 ] in
  let i = Var.fresh "i" in
  let s = Stmt.for_ i (Expr.int 4) (Stmt.store out [ Expr.var i ] (Expr.var i)) in
  Alcotest.(check int) "unmarked loop kept" 1
    (Stmt.count (function Stmt.For _ -> true | _ -> false) (Unroll.stmt s))

let test_unroll_preserves_semantics () =
  (* A nested marked loop nest writing a function of both indices: the
     unrolled kernel must produce identical output. *)
  let out = Buffer.create "out" [ 3; 5 ] in
  let i = Var.fresh "i" and j = Var.fresh "j" in
  let body =
    Stmt.for_ ~unroll:true i (Expr.int 3)
      (Stmt.for_ ~unroll:true j (Expr.int 5)
         (Stmt.store out
            [ Expr.var i; Expr.var j ]
            (Expr.add
               (Expr.mul (Expr.var i) (Expr.int 10))
               (Expr.add (Expr.var j) Expr.Thread_idx))))
  in
  let mk body =
    Kernel.create ~name:"u" ~params:[ out ] ~grid_dim:1 ~block_dim:1 body
  in
  let a = Array.make 15 0. and b = Array.make 15 0. in
  run_small (mk body) [ (out, a) ];
  run_small (Unroll.kernel (mk body)) [ (out, b) ];
  Alcotest.(check bool) "same output" true (a = b)

let test_unroll_matmul_template_semantics () =
  (* Unrolling the real template must not change its results. *)
  let module MT = Hidet_sched.Matmul_template in
  let m, n, k = (20, 24, 16) in
  let c = MT.compile ~m ~n ~k MT.default_config in
  let unrolled =
    {
      c with
      Hidet_sched.Compiled.kernels = List.map Unroll.kernel c.Hidet_sched.Compiled.kernels;
    }
  in
  let a = Hidet_tensor.Tensor.rand ~seed:1 [ 1; m; k ] in
  let b = Hidet_tensor.Tensor.rand ~seed:2 [ k; n ] in
  let r1 = Hidet_sched.Compiled.run c [ a; b ] in
  let r2 = Hidet_sched.Compiled.run unrolled [ a; b ] in
  Alcotest.(check bool) "template unroll-invariant" true
    (Hidet_tensor.Tensor.allclose r1 r2)

(* --- verifier ------------------------------------------------------------ *)

let make_kernel ?shared ?regs body params =
  Kernel.create ?shared ?regs ~name:"k" ~params ~grid_dim:1 ~block_dim:32 body

let test_verify_ok () =
  let a = Buffer.create "a" [ 32 ] in
  let body = Stmt.store a [ Expr.Thread_idx ] (Expr.float 1.) in
  Alcotest.(check bool) "ok" true (Result.is_ok (Verify.kernel (make_kernel body [ a ])))

let test_verify_unbound_var () =
  let a = Buffer.create "a" [ 32 ] in
  let v = Var.fresh "ghost" in
  let body = Stmt.store a [ Expr.var v ] (Expr.float 1.) in
  Alcotest.(check bool) "unbound" true
    (Result.is_error (Verify.kernel (make_kernel body [ a ])))

let test_verify_undeclared_buffer () =
  let a = Buffer.create "a" [ 32 ] in
  let ghost = Buffer.create "ghost" [ 4 ] in
  let body = Stmt.store a [ Expr.Thread_idx ] (Expr.load ghost [ Expr.int 0 ]) in
  Alcotest.(check bool) "undeclared" true
    (Result.is_error (Verify.kernel (make_kernel body [ a ])))

let test_verify_divergent_sync () =
  let a = Buffer.create "a" [ 32 ] in
  let body =
    Stmt.seq
      [
        Stmt.if_ (Expr.lt Expr.Thread_idx (Expr.int 16)) Stmt.sync;
        Stmt.store a [ Expr.Thread_idx ] (Expr.float 0.);
      ]
  in
  Alcotest.(check bool) "divergent sync rejected" true
    (Result.is_error (Verify.kernel (make_kernel body [ a ])))

let test_verify_uniform_sync_ok () =
  let a = Buffer.create "a" [ 32 ] in
  let i = Var.fresh "i" in
  let body =
    Stmt.for_ i (Expr.int 4)
      (Stmt.seq [ Stmt.sync; Stmt.store a [ Expr.Thread_idx ] (Expr.var i) ])
  in
  Alcotest.(check bool) "uniform sync ok" true
    (Result.is_ok (Verify.kernel (make_kernel body [ a ])))

let test_verify_rank_mismatch () =
  let a = Buffer.create "a" [ 4; 8 ] in
  (* Bypass the Stmt.store arity check to exercise the verifier. *)
  let body = Stmt.Store { buf = a; indices = [ Expr.int 0 ]; value = Expr.float 0. } in
  Alcotest.(check bool) "rank mismatch" true
    (Result.is_error (Verify.kernel (make_kernel body [ a ])))

let mma_stmt a b c ~m ~n ~k =
  Stmt.Mma
    {
      m; n; k;
      a; a_off = [ Expr.int 0; Expr.int 0 ];
      b; b_off = [ Expr.int 0; Expr.int 0 ];
      c; c_off = [ Expr.int 0; Expr.int 0 ];
    }

let test_verify_mma_tile_too_big () =
  (* An 8x8x8 MMA tile cannot fit in 4x4 operands. *)
  let sa = Buffer.create ~scope:Buffer.Shared "sa" [ 4; 4 ] in
  let sb = Buffer.create ~scope:Buffer.Shared "sb" [ 4; 4 ] in
  let sc = Buffer.create ~scope:Buffer.Warp "sc" [ 4; 4 ] in
  let k =
    Kernel.create ~shared:[ sa; sb ] ~warp_bufs:[ sc ] ~name:"mma_big"
      ~params:[] ~grid_dim:1 ~block_dim:32
      (mma_stmt sa sb sc ~m:8 ~n:8 ~k:8)
  in
  Alcotest.(check bool) "tile exceeds dims" true (Result.is_error (Verify.kernel k))

let test_verify_mma_rank1_operand () =
  let sa = Buffer.create ~scope:Buffer.Shared "sa" [ 16 ] in
  let sb = Buffer.create ~scope:Buffer.Shared "sb" [ 4; 4 ] in
  let sc = Buffer.create ~scope:Buffer.Warp "sc" [ 4; 4 ] in
  let k =
    Kernel.create ~shared:[ sa; sb ] ~warp_bufs:[ sc ] ~name:"mma_rank1"
      ~params:[] ~grid_dim:1 ~block_dim:32
      (Stmt.Mma
         {
           m = 4; n = 4; k = 4;
           a = sa; a_off = [ Expr.int 0 ];
           b = sb; b_off = [ Expr.int 0; Expr.int 0 ];
           c = sc; c_off = [ Expr.int 0; Expr.int 0 ];
         })
  in
  Alcotest.(check bool) "rank-1 operand rejected" true
    (Result.is_error (Verify.kernel k))

let test_verify_mma_undeclared_operand () =
  (* The accumulator is not declared as a warp buffer of the kernel. *)
  let sa = Buffer.create ~scope:Buffer.Shared "sa" [ 4; 4 ] in
  let sb = Buffer.create ~scope:Buffer.Shared "sb" [ 4; 4 ] in
  let ghost = Buffer.create ~scope:Buffer.Warp "ghost" [ 4; 4 ] in
  let k =
    Kernel.create ~shared:[ sa; sb ] ~name:"mma_ghost" ~params:[] ~grid_dim:1
      ~block_dim:32
      (mma_stmt sa sb ghost ~m:4 ~n:4 ~k:4)
  in
  Alcotest.(check bool) "undeclared operand rejected" true
    (Result.is_error (Verify.kernel k))

let test_verify_block_too_big () =
  let a = Buffer.create "a" [ 4 ] in
  let k =
    Kernel.create ~name:"big" ~params:[ a ] ~grid_dim:1 ~block_dim:2048
      (Stmt.store a [ Expr.int 0 ] (Expr.float 0.))
  in
  Alcotest.(check bool) "block too big" true (Result.is_error (Verify.kernel k))

(* --- codegen ------------------------------------------------------------- *)

let test_codegen_contains () =
  let a = Buffer.create "A" [ 64; 8 ] in
  let s = Buffer.create ~scope:Buffer.Shared "SmemA" [ 64; 8 ] in
  let i = Var.fresh "i" in
  let body =
    Stmt.seq
      [
        Stmt.for_ ~unroll:true i (Expr.int 4)
          (Stmt.store s
             [ Expr.var i; Expr.Thread_idx ]
             (Expr.load a [ Expr.var i; Expr.Thread_idx ]));
        Stmt.sync;
      ]
  in
  let k =
    Kernel.create ~shared:[ s ] ~name:"copy" ~params:[ a ] ~grid_dim:2
      ~block_dim:8 body
  in
  let src = Cuda_codegen.kernel k in
  let contains sub =
    Alcotest.(check bool) (Printf.sprintf "contains %S" sub) true
      (let rec search i =
         if i + String.length sub > String.length src then false
         else if String.sub src i (String.length sub) = sub then true
         else search (i + 1)
       in
       search 0)
  in
  contains "__global__";
  contains "__shared__ float";
  contains "__syncthreads()";
  contains "#pragma unroll";
  contains "__launch_bounds__(8)"

let () =
  Alcotest.run "hidet_ir"
    [
      ( "expr",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "identities" `Quick test_identities;
          Alcotest.test_case "bool folding" `Quick test_bool_folding;
          Alcotest.test_case "subst" `Quick test_subst;
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "eval indices" `Quick test_eval_indices;
          Alcotest.test_case "eval intrinsics" `Quick test_eval_float_intrinsics;
        ] );
      ( "simplify",
        [
          QCheck_alcotest.to_alcotest prop_simplify_preserves_eval;
          QCheck_alcotest.to_alcotest prop_simplify_idempotent;
          QCheck_alcotest.to_alcotest prop_subst_shares;
          QCheck_alcotest.to_alcotest prop_simplify_shares;
          Alcotest.test_case "stmt simplify" `Quick test_stmt_simplify;
          Alcotest.test_case "let inlining" `Quick test_let_inlining;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "expands marked loops" `Quick test_unroll_expands;
          Alcotest.test_case "threshold" `Quick test_unroll_respects_threshold;
          Alcotest.test_case "keeps unmarked" `Quick test_unroll_keeps_unmarked;
          Alcotest.test_case "preserves semantics" `Quick test_unroll_preserves_semantics;
          Alcotest.test_case "matmul template invariant" `Quick
            test_unroll_matmul_template_semantics;
        ] );
      ( "verify",
        [
          Alcotest.test_case "ok kernel" `Quick test_verify_ok;
          Alcotest.test_case "unbound var" `Quick test_verify_unbound_var;
          Alcotest.test_case "undeclared buffer" `Quick test_verify_undeclared_buffer;
          Alcotest.test_case "divergent sync" `Quick test_verify_divergent_sync;
          Alcotest.test_case "uniform sync" `Quick test_verify_uniform_sync_ok;
          Alcotest.test_case "rank mismatch" `Quick test_verify_rank_mismatch;
          Alcotest.test_case "mma tile too big" `Quick test_verify_mma_tile_too_big;
          Alcotest.test_case "mma rank-1 operand" `Quick test_verify_mma_rank1_operand;
          Alcotest.test_case "mma undeclared operand" `Quick
            test_verify_mma_undeclared_operand;
          Alcotest.test_case "block too big" `Quick test_verify_block_too_big;
        ] );
      ( "codegen",
        [ Alcotest.test_case "cuda text" `Quick test_codegen_contains ] );
    ]
