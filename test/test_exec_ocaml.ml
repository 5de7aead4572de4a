(* Parity suite for the native (codegen → ocamlopt → Dynlink) execution
   backend: on randomly generated kernels the dynlinked code must equal the
   closure-compiling backend bit for bit (results, statement counts and
   errors), and compilation must be memoized. When the toolchain is
   unavailable the suite skips visibly instead of failing. *)

open Hidet_ir
module CE = Hidet_gpu.Compile_exec
module Launch = Hidet_gpu.Launch
module EO = Hidet_gpu.Exec_ocaml
module G = QCheck.Gen

(* --- random kernel generator (same shape as test_compile_exec) ------------ *)

type spec = {
  grid : int;
  block : int;
  staged : bool;
  rounds : bool;
  reduce : int;
  pred_tail : bool;
  block_invariant : bool;
  value_seed : int;
  input_seed : int;
}

let spec_gen =
  let open G in
  let* grid = 1 -- 4 in
  let* block = oneofl [ 16; 32; 64 ] in
  let* staged = bool in
  let* rounds = bool in
  let* reduce = oneofl [ 0; 0; 2; 3; 4 ] in
  let* pred_tail = bool in
  let* block_invariant = frequency [ (3, return false); (1, return true) ] in
  let* value_seed = 0 -- 1_000_000 in
  let+ input_seed = 0 -- 1_000_000 in
  {
    grid;
    block;
    staged;
    rounds;
    reduce;
    pred_tail;
    block_invariant;
    value_seed;
    input_seed;
  }

let spec_print s =
  Printf.sprintf
    "{grid=%d; block=%d; staged=%b; rounds=%b; reduce=%d; pred_tail=%b; \
     block_invariant=%b; value_seed=%d; input_seed=%d}"
    s.grid s.block s.staged s.rounds s.reduce s.pred_tail s.block_invariant s.value_seed
    s.input_seed

let gen_value rng ~(a : Buffer.t) ~(b : Buffer.t) ~(smem : Buffer.t option)
    ~(n : int) ~(gid : Expr.t) =
  let idx () =
    match Random.State.int rng 4 with
    | 0 -> gid
    | 1 -> Expr.sub (Expr.int (n - 1)) gid
    | 2 -> Expr.modulo (Expr.mul gid (Expr.int 3)) (Expr.int n)
    | _ -> Expr.modulo (Expr.add gid (Expr.int 7)) (Expr.int n)
  in
  let leaf () =
    match Random.State.int rng 6 with
    | 0 -> Expr.load a [ idx () ]
    | 1 -> Expr.load b [ idx () ]
    | 2 -> (
      match smem with
      | Some s ->
        Expr.load s
          [ Expr.sub (Expr.int (List.hd s.Buffer.dims - 1)) Expr.Thread_idx ]
      | None -> Expr.load a [ idx () ])
    | 3 -> Expr.float (float_of_int (Random.State.int rng 9) /. 4.)
    | 4 -> Expr.int (Random.State.int rng 5)
    | _ -> Expr.Thread_idx
  in
  let rec go depth =
    if depth = 0 then leaf ()
    else
      match Random.State.int rng 8 with
      | 0 -> Expr.add (go (depth - 1)) (go (depth - 1))
      | 1 -> Expr.sub (go (depth - 1)) (go (depth - 1))
      | 2 -> Expr.mul (go (depth - 1)) (go (depth - 1))
      | 3 -> Expr.min_ (go (depth - 1)) (go (depth - 1))
      | 4 -> Expr.max_ (go (depth - 1)) (go (depth - 1))
      | 5 ->
        let u =
          match Random.State.int rng 4 with
          | 0 -> Expr.Abs
          | 1 -> Expr.Tanh
          | 2 -> Expr.Neg
          | _ -> Expr.Sqrt
        in
        Expr.unop u (go (depth - 1))
      | 6 ->
        Expr.select
          (Expr.lt Expr.Thread_idx (Expr.int (1 + Random.State.int rng 31)))
          (go (depth - 1))
          (go (depth - 1))
      | _ -> leaf ()
  in
  go (1 + Random.State.int rng 2)

let build_kernel (s : spec) =
  let n = s.grid * s.block in
  let a = Buffer.create "A" [ n ] and b = Buffer.create "B" [ n ] in
  let c = Buffer.create "C" [ n ] in
  let smem =
    if s.staged then Some (Buffer.create ~scope:Buffer.Shared "smem" [ s.block ])
    else None
  in
  let reg =
    if s.reduce > 0 then Some (Buffer.create ~scope:Buffer.Register "acc" [ 1 ])
    else None
  in
  let gid =
    Expr.add (Expr.mul Expr.Block_idx (Expr.int s.block)) Expr.Thread_idx
  in
  let rng = Random.State.make [| s.value_seed |] in
  let value = gen_value rng ~a ~b ~smem ~n ~gid in
  let out_idx = if s.block_invariant then Expr.Thread_idx else gid in
  let round = Var.fresh "round" in
  let stage =
    match smem with
    | Some sm ->
      let v = Expr.load a [ gid ] in
      let v = if s.rounds then Expr.add v (Expr.var round) else v in
      [ Stmt.store sm [ Expr.Thread_idx ] v; Stmt.sync ]
    | None -> []
  in
  let x = Var.fresh "x" in
  let store_out v =
    (* Each round adds to the output, so every round's values show. *)
    let v = if s.rounds then Expr.add (Expr.load c [ Expr.var x ]) v else v in
    let st = Stmt.let_ x out_idx (Stmt.store c [ Expr.var x ] v) in
    if s.pred_tail then Stmt.if_ (Expr.lt gid (Expr.int (max 1 (n - 3)))) st
    else st
  in
  let compute =
    match reg with
    | Some r ->
      let rv = Var.fresh "r" in
      [
        Stmt.store r [ Expr.int 0 ] (Expr.float 0.);
        Stmt.for_ rv (Expr.int s.reduce)
          (Stmt.store r [ Expr.int 0 ]
             (Expr.add
                (Expr.load r [ Expr.int 0 ])
                (Expr.add value (Expr.mul (Expr.var rv) (Expr.float 0.5)))));
        store_out (Expr.load r [ Expr.int 0 ]);
      ]
    | None -> [ store_out value ]
  in
  let k =
    Kernel.create
      ?shared:(Option.map (fun sm -> [ sm ]) smem)
      ?regs:(Option.map (fun r -> [ r ]) reg)
      ~name:"gen" ~params:[ a; b; c ] ~grid_dim:s.grid ~block_dim:s.block
      (let body = Stmt.seq (stage @ compute) in
       if not s.rounds then body
       else
         let n = Var.fresh "n" in
         Stmt.let_ n
           (Expr.add (Expr.modulo Expr.Block_idx (Expr.int 2)) (Expr.int 1))
           (Stmt.for_ round (Expr.var n) body))
  in
  (k, a, b, c, n)

let make_inputs seed n =
  let rng = Random.State.make [| seed |] in
  Array.init n (fun _ -> Random.State.float rng 4. -. 2.)

let bits = Int64.bits_of_float

let arrays_equal_bits x y =
  Array.length x = Array.length y
  && Array.for_all Fun.id
       (Array.init (Array.length x) (fun i -> bits x.(i) = bits y.(i)))

let capture runner (k : Kernel.t) ~a ~b ~c ~n ~seed =
  let av = make_inputs seed n
  and bv = make_inputs (seed + 1) n
  and cv = Array.make n 0. in
  try
    runner k [ (a, av); (b, bv); (c, cv) ];
    Ok cv
  with e -> Error e

let same_result r1 r2 =
  match (r1, r2) with
  | Ok x, Ok y -> arrays_equal_bits x y
  | Error e1, Error e2 -> e1 = e2
  | _ -> false

let stmts_counter = Hidet_obs.Metrics.counter "sim.statements"
let m_units = Hidet_obs.Metrics.counter "sim.native.units"
let m_hits = Hidet_obs.Metrics.counter "sim.native.memo_hits"
let m_fallbacks = Hidet_obs.Metrics.counter "sim.native.fallbacks"
let m_codegen_us = Hidet_obs.Metrics.counter "sim.native.codegen_us"

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --- qcheck properties ----------------------------------------------------- *)

let arb_spec = QCheck.make ~print:spec_print spec_gen

(* Also asserts the executed-statement counts agree: the generated code
   must bump its counter at exactly the closure backend's points. *)
let prop_native_eq_compiled =
  QCheck.Test.make ~count:60 ~name:"native backend == closure backend"
    arb_spec (fun s ->
      let k, a, b, c, n = build_kernel s in
      let v = Hidet_obs.Metrics.value in
      let s0 = v stmts_counter in
      let r_closure =
        capture (Launch.run ~workers:1 CE.compile) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      let closure_stmts = v stmts_counter - s0 in
      let s1 = v stmts_counter in
      let r_native =
        capture (Launch.run ~workers:1 EO.compile) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      let native_stmts = v stmts_counter - s1 in
      same_result r_closure r_native && closure_stmts = native_stmts)

let prop_native_parallel_eq_sequential =
  QCheck.Test.make ~count:30 ~name:"native parallel grid == sequential grid"
    arb_spec (fun s ->
      let k, a, b, c, n = build_kernel s in
      let r_par =
        capture (Launch.run ~workers:4 EO.compile) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      let r_seq =
        capture (Launch.run ~workers:1 EO.compile) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      same_result r_par r_seq)

(* --- deterministic error-parity cases -------------------------------------- *)

let both_raise_same name mk =
  Alcotest.test_case name `Quick (fun () ->
      let k, bindings_of = mk () in
      let go runner =
        try
          runner k (bindings_of ());
          Ok ()
        with e -> Error e
      in
      let r1 = go (Launch.run ~workers:1 CE.compile)
      and r2 = go (Launch.run ~workers:1 EO.compile) in
      (match r1 with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "closure backend did not raise");
      Alcotest.(check bool)
        "same exception (constructor and message)" true (r1 = r2))

let runtime_divergence_kernel () =
  let c = Buffer.create "C" [ 32 ] in
  let x = Var.fresh "x" in
  let body =
    Stmt.seq
      [
        Stmt.let_ x Expr.Thread_idx
          (Stmt.if_ (Expr.lt (Expr.var x) (Expr.int 16)) Stmt.sync);
        Stmt.store c [ Expr.Thread_idx ] (Expr.float 0.);
      ]
  in
  let k =
    Kernel.create ~name:"rt_diverge" ~params:[ c ] ~grid_dim:1 ~block_dim:32
      body
  in
  (k, fun () -> [ (c, Array.make 32 0.) ])

(* The index goes through a let, so each build carries a fresh variable id. *)
let oob_store_kernel ?(name = "C") () =
  let c = Buffer.create name [ 8 ] in
  let x = Var.fresh "x" in
  let body =
    Stmt.let_ x Expr.Thread_idx (Stmt.store c [ Expr.var x ] (Expr.float 1.))
  in
  let k =
    Kernel.create ~name:"oob" ~params:[ c ] ~grid_dim:1 ~block_dim:32 body
  in
  (k, fun () -> [ (c, Array.make 8 0.) ])

let negative_index_kernel () =
  let a = Buffer.create "A" [ 32 ] and c = Buffer.create "C" [ 32 ] in
  let body =
    Stmt.store c [ Expr.Thread_idx ]
      (Expr.load a [ Expr.sub Expr.Thread_idx (Expr.int 1) ])
  in
  let k =
    Kernel.create ~name:"neg" ~params:[ a; c ] ~grid_dim:1 ~block_dim:32 body
  in
  (k, fun () -> [ (a, Array.make 32 0.); (c, Array.make 32 0.) ])

let missing_binding_kernel () =
  let c = Buffer.create "C" [ 8 ] in
  let k =
    Kernel.create ~name:"missing" ~params:[ c ] ~grid_dim:1 ~block_dim:1
      (Stmt.store c [ Expr.int 0 ] (Expr.float 1.))
  in
  (k, fun () -> [])

let div_by_zero_kernel () =
  let c = Buffer.create "C" [ 8 ] in
  let k =
    Kernel.create ~name:"divz" ~params:[ c ] ~grid_dim:1 ~block_dim:1
      (Stmt.store c [ Expr.int 0 ]
         (Expr.div (Expr.int 1) (Expr.sub Expr.Thread_idx Expr.Thread_idx)))
  in
  (k, fun () -> [ (c, Array.make 8 0.) ])

(* --- deterministic result parity ------------------------------------------- *)

let check_same_outputs name k bindings_of outputs =
  Alcotest.test_case name `Quick (fun () ->
      let run runner =
        let bs = bindings_of () in
        runner k bs;
        List.map (fun b -> List.assq b bs) outputs
      in
      let o1 = run (Launch.run ~workers:1 CE.compile)
      and o2 = run (Launch.run ~workers:1 EO.compile) in
      List.iter2
        (fun x y ->
          Alcotest.(check bool) "outputs bit-identical" true
            (arrays_equal_bits x y))
        o1 o2)

let mma_kernel () =
  let a = Buffer.create "A" [ 8; 4 ] and b = Buffer.create "B" [ 4; 8 ] in
  let c = Buffer.create "C" [ 8; 8 ] in
  let sa = Buffer.create ~scope:Buffer.Shared "sa" [ 8; 4 ] in
  let sb = Buffer.create ~scope:Buffer.Shared "sb" [ 4; 8 ] in
  let sc = Buffer.create ~scope:Buffer.Warp "sc" [ 8; 8 ] in
  let copy_in =
    Stmt.seq
      [
        Stmt.store sa
          [
            Expr.div Expr.Thread_idx (Expr.int 4);
            Expr.modulo Expr.Thread_idx (Expr.int 4);
          ]
          (Expr.load a
             [
               Expr.div Expr.Thread_idx (Expr.int 4);
               Expr.modulo Expr.Thread_idx (Expr.int 4);
             ]);
        Stmt.store sb
          [
            Expr.div Expr.Thread_idx (Expr.int 8);
            Expr.modulo Expr.Thread_idx (Expr.int 8);
          ]
          (Expr.load b
             [
               Expr.div Expr.Thread_idx (Expr.int 8);
               Expr.modulo Expr.Thread_idx (Expr.int 8);
             ]);
      ]
  in
  let mma =
    Stmt.Mma
      {
        m = 8;
        n = 8;
        k = 4;
        a = sa;
        a_off = [ Expr.int 0; Expr.int 0 ];
        b = sb;
        b_off = [ Expr.int 0; Expr.int 0 ];
        c = sc;
        c_off = [ Expr.int 0; Expr.int 0 ];
      }
  in
  let writeback =
    Stmt.seq
      (List.init 2 (fun r ->
           Stmt.store c
             [
               Expr.add
                 (Expr.mul (Expr.int r) (Expr.int 4))
                 (Expr.div Expr.Thread_idx (Expr.int 8));
               Expr.modulo Expr.Thread_idx (Expr.int 8);
             ]
             (Expr.load sc
                [
                  Expr.add
                    (Expr.mul (Expr.int r) (Expr.int 4))
                    (Expr.div Expr.Thread_idx (Expr.int 8));
                  Expr.modulo Expr.Thread_idx (Expr.int 8);
                ])))
  in
  let body = Stmt.seq [ copy_in; Stmt.sync; mma; Stmt.sync; writeback ] in
  let k =
    Kernel.create ~shared:[ sa; sb ] ~warp_bufs:[ sc ] ~name:"mma"
      ~params:[ a; b; c ] ~grid_dim:1 ~block_dim:32 body
  in
  let bindings_of () =
    [
      (a, Array.init 32 (fun x -> float_of_int (x mod 5) -. 2.));
      (b, Array.init 32 (fun x -> float_of_int (x mod 7) -. 3.));
      (c, Array.make 64 0.);
    ]
  in
  (k, bindings_of, [ c ])

(* --- memoization & codegen ------------------------------------------------- *)

let vadd_kernel () =
  let n = 128 in
  let a = Buffer.create "A" [ n ] and c = Buffer.create "C" [ n ] in
  let gid = Expr.add (Expr.mul Expr.Block_idx (Expr.int 32)) Expr.Thread_idx in
  ( Kernel.create ~name:"vadd" ~params:[ a; c ] ~grid_dim:4 ~block_dim:32
      (Stmt.store c [ gid ] (Expr.add (Expr.load a [ gid ]) (Expr.float 1.))),
    a,
    c )

let test_compile_is_memoized () =
  let k, a, c = vadd_kernel () in
  let v = Hidet_obs.Metrics.value in
  let c1 = EO.compile k in
  let units_after_first = v m_units in
  let hits0 = v m_hits in
  let c2 = EO.compile k in
  Alcotest.(check int) "second compile builds no new unit" units_after_first
    (v m_units);
  Alcotest.(check bool) "second compile hits the memo" true
    (v m_hits = hits0 + 1);
  let cv1 = Array.make 128 0. and cv2 = Array.make 128 0. in
  Launch.run_compiled c1 [ (a, Array.make 128 1.); (c, cv1) ];
  Launch.run_compiled c2 [ (a, Array.make 128 2.); (c, cv2) ];
  Alcotest.(check (float 0.)) "first launch" 2. cv1.(5);
  Alcotest.(check (float 0.)) "memoized unit still correct" 3. cv2.(5)

let test_source_mentions_no_dispatch () =
  (* The generated source is type-specialized: a pure float/int kernel
     never references the boxed fallback. *)
  let k, _, _ = vadd_kernel () in
  let src = EO.source k in
  Alcotest.(check bool) "no dyn_binop in specialized source" false
    (contains "dyn_binop" src);
  Alcotest.(check bool) "uses unsafe accesses" true
    (contains "Array.unsafe_get" src)

let test_native_metrics_counters () =
  let k, a, c = vadd_kernel () in
  let v = Hidet_obs.Metrics.value in
  let m_threads = Hidet_obs.Metrics.counter "sim.threads" in
  let t0 = v m_threads and s0 = v stmts_counter in
  Launch.run EO.compile k [ (a, Array.make 128 1.); (c, Array.make 128 0.) ];
  Alcotest.(check int) "threads counted" (Kernel.num_threads k)
    (v m_threads - t0);
  Alcotest.(check bool) "statements counted" true (v stmts_counter - s0 >= 128)

(* --- memo hits across fresh ids -------------------------------------------- *)

module Gen = Hidet_check.Gen
module Plan = Hidet_runtime.Plan

(* Rule-based kernels of a generated definition, as sources or memo keys;
   [None] when the schedule does not apply. Each call mints fresh variable
   and buffer ids. *)
let def_kernels spec =
  match Hidet_sched.Rule_based.schedule (Gen.build_def spec) with
  | c -> Some c.Hidet_sched.Compiled.kernels
  | exception Invalid_argument _ -> None

let def_sources spec = Option.map (List.map EO.source) (def_kernels spec)
let def_keys spec = Option.map (List.map EO.key) (def_kernels spec)

(* The first definition case at or after index [i] of the fuzzer's stream
   for [seed] that the rule-based schedule lowers. *)
let rec def_case seed i =
  match Gen.gen_case (Random.State.make [| seed; i |]) ~max_size:8 with
  | Gen.C_def { spec; _ } when def_sources spec <> None -> spec
  | _ -> def_case seed (i + 1)

(* Lowering the same case twice gives fresh ids but byte-equal source and
   an equal memo key; one changed dim or constant gives different source
   and a different key. *)
let prop_source_alpha_invariant =
  QCheck.Test.make ~count:100 ~name:"generated source is alpha-invariant"
    QCheck.(pair (0 -- 1000) (0 -- 1000))
    (fun (seed, i) ->
      let spec = def_case seed i in
      let again = def_case seed i in
      let dims =
        match spec.Gen.ds_out with
        | d :: rest -> { spec with Gen.ds_out = (d + 1) :: rest }
        | [] -> spec
      in
      let plus c =
        {
          spec with
          Gen.ds_body = Gen.B_bin (Expr.Add, spec.Gen.ds_body, Gen.B_const c);
        }
      in
      def_sources spec = def_sources again
      && def_keys spec = def_keys again
      && def_sources spec <> def_sources dims
      && def_keys spec <> def_keys dims
      && def_sources (plus 0.5) <> def_sources (plus 0.75)
      && def_keys (plus 0.5) <> def_keys (plus 0.75))

(* Every engine's tiny-model kernels, compiled twice with fresh ids in
   between: two kernels have equal memo keys exactly when their sources are
   byte-equal, and each recompiled kernel has its first compile's key. *)
let test_key_iff_source () =
  let first, second =
    Zoo.twice (fun () -> Zoo.tiny_engine_kernels Hidet_gpu.Device.rtx3090)
  in
  let keyed ks = List.map (fun k -> (EO.key k, Digest.string (EO.source k))) ks in
  let first = keyed first and second = keyed second in
  List.iter2
    (fun (k1, s1) (k2, s2) ->
      Alcotest.(check bool) "recompile: same key" true (k1 = k2);
      Alcotest.(check bool) "recompile: same source" true (s1 = s2))
    first second;
  let source_of = Hashtbl.create 256 and key_of = Hashtbl.create 256 in
  List.iter
    (fun (k, s) ->
      (match Hashtbl.find_opt source_of k with
      | Some s' -> Alcotest.(check bool) "equal keys, equal sources" true (s = s')
      | None -> Hashtbl.add source_of k s);
      match Hashtbl.find_opt key_of s with
      | Some k' -> Alcotest.(check bool) "equal sources, equal keys" true (k = k')
      | None -> Hashtbl.add key_of s k)
    (first @ second);
  Alcotest.(check bool) "more than one distinct kernel" true
    (Hashtbl.length source_of > 1)

(* A recompile after [Schedule_cache.clear] mints new ids for every kernel;
   its native run must reuse the units the first compile loaded and run no
   codegen. *)
let test_recompile_hits_memo () =
  let v = Hidet_obs.Metrics.value in
  let compile () =
    Hidet_sched.Schedule_cache.clear ();
    let g = Hidet_models.Models.Tiny.cnn () in
    (g, fst (Hidet.Hidet_engine.compile_plan Hidet_gpu.Device.rtx3090 g))
  in
  let g, first = compile () in
  let inputs =
    List.map
      (fun id ->
        Hidet_tensor.Tensor.rand ~seed:3 (Hidet_graph.Graph.node_shape g id))
      (Hidet_graph.Graph.input_ids g)
  in
  ignore (Plan.run1 ~backend:`Native first inputs);
  let _, second = compile () in
  let u0 = v m_units and h0 = v m_hits and f0 = v m_fallbacks in
  let c0 = v m_codegen_us in
  let native, events =
    Hidet_obs.Trace.with_collector (fun () ->
        Plan.run1 ~backend:`Native second inputs)
  in
  Alcotest.(check int) "no unit built" u0 (v m_units);
  Alcotest.(check int) "no codegen time" c0 (v m_codegen_us);
  Alcotest.(check int) "no codegen span" 0
    (List.length
       (List.filter
          (function
            | Hidet_obs.Trace.Span { name; _ } -> name = "sim.native.codegen"
            | _ -> false)
          events));
  Alcotest.(check int) "one memo hit per kernel" (Plan.kernel_count second)
    (v m_hits - h0);
  Alcotest.(check int) "no fallback" f0 (v m_fallbacks);
  let closure = Plan.run1 ~backend:`Closure second inputs in
  Alcotest.(check bool) "native output bit-equal to closure output" true
    (arrays_equal_bits
       (Hidet_tensor.Tensor.data closure)
       (Hidet_tensor.Tensor.data native))

(* Every kernel of the four tiny models' plans, each parameter bound to its
   own random array: the closure backend must count the statements the
   native one counts, kernel by kernel, and write the same bits (or raise
   the same exception). *)
let test_tiny_kernel_counts () =
  let v = Hidet_obs.Metrics.value in
  let run runner (k : Kernel.t) =
    let bs =
      List.mapi
        (fun i (b : Buffer.t) -> (b, make_inputs (31 * (i + 1)) (Buffer.num_elems b)))
        k.Kernel.params
    in
    let s0 = v stmts_counter in
    let r =
      try
        runner k bs;
        Ok (List.map snd bs)
      with e -> Error e
    in
    (r, v stmts_counter - s0)
  in
  List.iter
    (fun (model, mk) ->
      let plan, _ = Hidet.Hidet_engine.compile_plan Hidet_gpu.Device.rtx3090 (mk ()) in
      List.iter
        (fun (step : Plan.step) ->
          List.iter
            (fun (k : Kernel.t) ->
              let name = model ^ "/" ^ k.Kernel.name in
              let closure, n_closure = run (Launch.run ~workers:1 CE.compile) k in
              let native, n_native = run (Launch.run ~workers:1 EO.compile) k in
              Alcotest.(check int) (name ^ ": statements") n_native n_closure;
              Alcotest.(check bool) (name ^ ": outputs") true
                (match (closure, native) with
                | Ok x, Ok y -> List.for_all2 arrays_equal_bits x y
                | Error e1, Error e2 -> e1 = e2
                | _ -> false))
            step.Plan.compiled.Hidet_sched.Compiled.kernels)
        plan.Plan.steps)
    Hidet_models.Models.tiny_all

(* [Compiled.run] keeps a launch handle per kernel and backend. The first
   launches race on four domains, as [Hidet_serve.Pool]'s workers do, and
   agree bit for bit; a later run compiles nothing (no [sim.compile] or
   [sim.native.codegen] span, no compile counter moves) and gives the same
   output. *)
let test_launch_handles () =
  let counters =
    List.map Hidet_obs.Metrics.counter
      [ "sim.compile_us"; "sim.native.codegen_us"; "sim.native.memo_hits" ]
  in
  let values () = List.map Hidet_obs.Metrics.value counters in
  let g = Hidet_models.Models.Tiny.separable () in
  let plan, _ = Hidet.Hidet_engine.compile_plan Hidet_gpu.Device.rtx3090 g in
  let inputs =
    List.map
      (fun id ->
        Hidet_tensor.Tensor.rand ~seed:5 (Hidet_graph.Graph.node_shape g id))
      (Hidet_graph.Graph.input_ids g)
  in
  List.iter
    (fun backend ->
      let racing =
        Hidet_parallel.Parallel.map ~workers:4
          (fun _ -> Plan.run1 ~backend plan inputs)
          (Array.make 4 ())
      in
      let first = racing.(0) in
      Array.iter
        (fun out ->
          Alcotest.(check bool) "racing first runs bit-equal" true
            (arrays_equal_bits
               (Hidet_tensor.Tensor.data first)
               (Hidet_tensor.Tensor.data out)))
        racing;
      let before = values () in
      let second, events =
        Hidet_obs.Trace.with_collector (fun () ->
            Plan.run1 ~backend plan inputs)
      in
      Alcotest.(check (list int)) "compile counters unchanged" before
        (values ());
      Alcotest.(check int) "no compile span" 0
        (List.length
           (List.filter
              (function
                | Hidet_obs.Trace.Span { name; _ } ->
                  name = "sim.compile" || name = "sim.native.codegen"
                | _ -> false)
              events));
      Alcotest.(check bool) "later output bit-equal to the first" true
        (arrays_equal_bits
           (Hidet_tensor.Tensor.data first)
           (Hidet_tensor.Tensor.data second)))
    [ `Closure; `Native ]

(* The out-of-bounds case built twice: the second build is a memo hit and
   raises the closure backend's exception all the same. The same kernel
   with its buffer renamed must miss, since the error names the buffer. *)
let test_error_parity_through_hit () =
  let v = Hidet_obs.Metrics.value in
  let go ?name runner =
    let k, bindings_of = oob_store_kernel ?name () in
    try
      runner k (bindings_of ());
      Ok ()
    with e -> Error e
  in
  let first = go (Launch.run ~workers:1 EO.compile) in
  let u0 = v m_units and h0 = v m_hits in
  let second = go (Launch.run ~workers:1 EO.compile) in
  Alcotest.(check int) "no unit built" u0 (v m_units);
  Alcotest.(check int) "memo hit" (h0 + 1) (v m_hits);
  Alcotest.(check bool) "raises" true (Result.is_error second);
  Alcotest.(check bool) "same exception as the first run" true (first = second);
  Alcotest.(check bool) "same exception as the closure backend" true
    (go (Launch.run ~workers:1 CE.compile) = second);
  let u1 = v m_units in
  let renamed = go ~name:"D" (Launch.run ~workers:1 EO.compile) in
  Alcotest.(check int) "renamed buffer: a new unit" (u1 + 1) (v m_units);
  Alcotest.(check bool) "renamed buffer: same exception as the closure backend"
    true
    (go ~name:"D" (Launch.run ~workers:1 CE.compile) = renamed);
  let names_buffer name = function
    | Error e -> contains (" on " ^ name) (Printexc.to_string e)
    | Ok () -> false
  in
  Alcotest.(check bool) "first error names C" true (names_buffer "C" second);
  Alcotest.(check bool) "renamed error names D" true (names_buffer "D" renamed)

(* The toolchain probe runs once per process, so each missing-toolchain
   path runs in a child: [prog] started with [env] must exit 0, print
   [line] once on stderr and fall back once per kernel launch. *)
let falls_back_visibly ~env ~line prog =
  let ((out, inp, err) as chans) =
    Unix.open_process_args_full prog [| prog |] env
  in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  let status = Unix.close_process_full chans in
  Alcotest.(check bool) "child exits 0" true (status = Unix.WEXITED 0);
  Alcotest.(check int) "one stderr line" 1
    (List.length
       (List.filter (contains line) (String.split_on_char '\n' stderr)));
  Scanf.sscanf stdout "fallbacks=%d launches=%d" (fun fallbacks launches ->
      Alcotest.(check bool) "launched kernels" true (launches > 0);
      Alcotest.(check int) "one fallback per launch" launches fallbacks)

let fallback_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "native_fallback.exe"

(* A PATH that holds no ocamlfind. *)
let test_missing_toolchain_falls_back () =
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun e -> not (String.starts_with ~prefix:"PATH=" e))
    |> List.cons "PATH=" |> Array.of_list
  in
  falls_back_visibly ~env
    ~line:"native backend unavailable (ocamlfind not found on PATH)"
    (fallback_exe ())

(* A copy of the executable outside the build tree finds no .cmi
   directories next to it, and names where it looked. *)
let test_copied_executable_falls_back () =
  let dir = Filename.temp_dir "hidet_copy" "" in
  let copy = Filename.concat dir "native_fallback.exe" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove copy with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_gen
        [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
        0o755 copy
        (fun oc ->
          Out_channel.output_string oc
            (In_channel.with_open_bin (fallback_exe ()) In_channel.input_all));
      (* The child sees its own path as the kernel resolves it. *)
      let seen = Unix.realpath copy in
      falls_back_visibly ~env:(Unix.environment ())
        ~line:
          ("native backend unavailable (no .cmi directories found near " ^ seen)
        copy)

(* --------------------------------------------------------------------------- *)

let () =
  match EO.available () with
  | Error reason ->
    (* Visible skip: the toolchain probe failed, so parity cannot run
       here. The codegen itself still must work. *)
    Printf.printf
      "SKIP exec_ocaml parity: native toolchain unavailable (%s)\n%!" reason;
    let k, _, _ = vadd_kernel () in
    Alcotest.run "exec_ocaml"
      [
        ( "codegen only (toolchain unavailable)",
          [
            Alcotest.test_case "source generates" `Quick (fun () ->
                Alcotest.(check bool) "non-empty" true
                  (String.length (EO.source k) > 0));
            QCheck_alcotest.to_alcotest prop_source_alpha_invariant;
            Alcotest.test_case "equal keys exactly when sources are equal"
              `Quick test_key_iff_source;
            Alcotest.test_case "missing toolchain falls back visibly" `Quick
              test_missing_toolchain_falls_back;
          ] );
      ]
  | Ok () ->
    Alcotest.run "exec_ocaml"
      [
        ( "parity",
          [
            QCheck_alcotest.to_alcotest prop_native_eq_compiled;
            QCheck_alcotest.to_alcotest prop_native_parallel_eq_sequential;
            Alcotest.test_case "tiny-model kernels count the same statements"
              `Quick test_tiny_kernel_counts;
          ] );
        ( "error parity",
          [
            both_raise_same "runtime barrier divergence"
              runtime_divergence_kernel;
            both_raise_same "out-of-bounds store" (oob_store_kernel ?name:None);
            both_raise_same "negative index load" negative_index_kernel;
            both_raise_same "missing binding" missing_binding_kernel;
            both_raise_same "division by zero" div_by_zero_kernel;
          ] );
        ( "result parity",
          [
            (let k, b, o = mma_kernel () in
             check_same_outputs "mma tile" k b o);
          ] );
        ( "compilation",
          [
            Alcotest.test_case "compile is memoized" `Quick
              test_compile_is_memoized;
            Alcotest.test_case "recompile reuses every loaded unit" `Quick
              test_recompile_hits_memo;
            Alcotest.test_case "error parity through a memo hit" `Quick
              test_error_parity_through_hit;
            Alcotest.test_case "a second run reuses every launch handle"
              `Quick test_launch_handles;
            Alcotest.test_case "source is type-specialized" `Quick
              test_source_mentions_no_dispatch;
            QCheck_alcotest.to_alcotest prop_source_alpha_invariant;
            Alcotest.test_case "missing toolchain falls back visibly" `Quick
              test_missing_toolchain_falls_back;
            Alcotest.test_case "a copied executable falls back visibly" `Quick
              test_copied_executable_falls_back;
            Alcotest.test_case "equal keys exactly when sources are equal"
              `Quick test_key_iff_source;
          ] );
        ( "observability",
          [
            Alcotest.test_case "metrics counters" `Quick
              test_native_metrics_counters;
          ] );
        ( "phased barriers",
          [
            Alcotest.test_case "tiny-model kernels run phased" `Quick
              (Phase_cases.test_tiny_phased EO.compile);
            Alcotest.test_case "rt_diverge runs on the reference" `Quick
              (Phase_cases.test_divergence_on_reference EO.compile
                 (runtime_divergence_kernel ()));
          Alcotest.test_case "a convergent threadIdx-guarded barrier runs on the reference"
            `Quick (Phase_cases.test_fallback_counts EO.compile);
          ]
          @ List.map
              (fun case ->
                Phase_cases.order_case_both case
                  (Launch.run ~workers:1 CE.compile)
                  (Launch.run ~workers:1 EO.compile))
              Phase_cases.cases );
      ]
