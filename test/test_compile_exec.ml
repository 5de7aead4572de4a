(* Parity suite for the closure-compiling execution backend: on randomly
   generated kernels the compiled backend must equal the legacy interpreter
   bit for bit (including errors), and the domain-parallel grid must equal
   the sequential grid. *)

open Hidet_ir
module Interp = Hidet_gpu.Interp
module CE = Hidet_gpu.Compile_exec
module Launch = Hidet_gpu.Launch
module G = QCheck.Gen

(* --- random kernel generator --------------------------------------------- *)

type spec = {
  grid : int;
  block : int;
  staged : bool;  (** stage input through shared memory with a barrier *)
  rounds : bool;
      (** repeat the body in a loop over a [Let]-bound [blockIdx] extent,
          so a staged barrier sits in a uniform loop *)
  reduce : int;  (** 0 = single store, else a reduction loop of this extent *)
  pred_tail : bool;  (** predicate the output store on a tail condition *)
  block_invariant : bool;
      (** index the output by [threadIdx] only: blocks collide, so the
          parallel-grid gate must force sequential execution *)
  nest : int;
      (** 0 = none, else an unrolled register nest (fill, copy, FMA) with
          [threadIdx]-affine indices: 1 in range, 2 reading past the input
          in later blocks, 3 writing past the register on odd threads; or a
          lane nest after the fill: 4 a guarded store that cuts the tile
          short on the block's last threads, 5 a window sum into the
          register whose loads leave the input in later blocks *)
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
  let* nest =
    frequency
      [ (2, return 0); (3, return 1); (1, return 2); (1, return 3); (2, return 4); (1, return 5) ]
  in
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
    nest;
    value_seed;
    input_seed;
  }

let spec_print s =
  Printf.sprintf
    "{grid=%d; block=%d; staged=%b; rounds=%b; reduce=%d; pred_tail=%b; \
     block_invariant=%b; nest=%d; value_seed=%d; input_seed=%d}"
    s.grid s.block s.staged s.rounds s.reduce s.pred_tail s.block_invariant s.nest
    s.value_seed s.input_seed

(* A random float-valued expression over in-bounds loads, the thread index,
   and constants; depth-bounded. Mixes int and float subterms to exercise
   the promotion rules, and [Select] to exercise short-circuiting. *)
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
  (* The register nest: a fill, a copy from [A] and an FMA over [frag]
     and [A], read back into the value. Raw constructors keep every index
     as written. *)
  let extent = 3 in
  let frag =
    if s.nest > 0 then Some (Buffer.create ~scope:Buffer.Register "frag" [ extent ])
    else None
  in
  let nest, value =
    match frag with
    | None -> ([], value)
    | Some f ->
      let j = Var.fresh "j" in
      let vj = Expr.var j in
      let half = Expr.Binop (Div, Thread_idx, Int 2) in
      let src =
        if s.nest = 2 then Expr.Binop (Add, gid, Binop (Mul, vj, Int s.block))
        else Expr.Binop (Add, half, vj)
      in
      let dst =
        if s.nest = 3 then Expr.Binop (Add, Binop (Mod, Thread_idx, Int 2), vj) else vj
      in
      let loop body = Stmt.for_ ~unroll:true j (Expr.int extent) body in
      let second =
        match s.nest with
        | 4 ->
          (* a store at [j] while [tid + j < block - 2] *)
          Stmt.for_ j (Expr.int extent)
            (Stmt.if_
               (Expr.Binop (Lt, Binop (Add, Thread_idx, vj), Int (s.block - 2)))
               (Stmt.store f [ vj ]
                  (Expr.Binop (Add, Binop (Mul, Load (a, [ src ]), Float 0.5), Load (b, [ gid ])))))
        | 5 ->
          (* [frag\[1\] += A\[gid + u * block + v\]], [u < 2], [v < 3] *)
          let u = Var.fresh "u" in
          Stmt.for_ u (Expr.int 2)
            (Stmt.for_ j (Expr.int extent)
               (Stmt.store f [ Expr.Int 1 ]
                  (Expr.Binop
                     ( Add,
                       Load (f, [ Expr.Int 1 ]),
                       Load (a, [ Binop (Add, gid, Binop (Add, Binop (Mul, Expr.var u, Int s.block), vj)) ])
                     ))))
        | _ -> loop (Stmt.store f [ dst ] (Expr.load a [ src ]))
      in
      ( [
          loop (Stmt.store f [ vj ] (Expr.Float 0.5));
          second;
          loop
            (Stmt.store f [ vj ]
               (Expr.Binop
                  ( Add,
                    Load (f, [ vj ]),
                    Binop
                      ( Mul,
                        Load (f, [ Binop (Sub, Int (extent - 1), vj) ]),
                        Load (a, [ Binop (Add, half, vj) ]) ) )));
        ],
        Expr.add value
          (Expr.add (Expr.load f [ Expr.int 0 ]) (Expr.load f [ Expr.int (extent - 1) ])) )
  in
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
      ~regs:(Option.to_list reg @ Option.to_list frag)
      ~name:"gen" ~params:[ a; b; c ] ~grid_dim:s.grid ~block_dim:s.block
      (let body = Stmt.seq (stage @ nest @ compute) in
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
  Array.init n (fun _ -> (Random.State.float rng 4.) -. 2.)

let bits = Int64.bits_of_float

let arrays_equal_bits x y =
  Array.length x = Array.length y
  && Array.for_all Fun.id (Array.init (Array.length x) (fun i -> bits x.(i) = bits y.(i)))

(* Run a kernel through one backend; capture either the output array or the
   raised exception (compared structurally, i.e. message included). *)
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

(* --- qcheck properties ---------------------------------------------------- *)

let arb_spec = QCheck.make ~print:spec_print spec_gen

let prop_compiled_eq_legacy =
  QCheck.Test.make ~count:60 ~name:"compiled backend == legacy interpreter"
    arb_spec (fun s ->
      let k, a, b, c, n = build_kernel s in
      let r_legacy = capture Interp.run k ~a ~b ~c ~n ~seed:s.input_seed in
      let r_compiled =
        capture (Launch.run ~workers:1 CE.compile) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      same_result r_legacy r_compiled)

let prop_parallel_eq_sequential =
  QCheck.Test.make ~count:60 ~name:"parallel grid == sequential grid" arb_spec
    (fun s ->
      let k, a, b, c, n = build_kernel s in
      let r_par =
        capture (Launch.run ~workers:4 CE.compile) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      let r_seq =
        capture (Launch.run ~workers:1 CE.compile) k ~a ~b ~c ~n ~seed:s.input_seed
      in
      same_result r_par r_seq)

let prop_gate_respects_collisions =
  QCheck.Test.make ~count:40
    ~name:"parallel-grid gate rejects block-colliding stores" arb_spec
    (fun s ->
      let k, _, _, _, _ = build_kernel s in
      (* Colliding output indices must never be declared disjoint. *)
      QCheck.assume (s.block_invariant && s.grid > 1);
      not (Verify.block_disjoint_writes k))

(* --- deterministic error-parity cases (PR 3 negative-path kernels) -------- *)

let both_raise_same name mk =
  Alcotest.test_case name `Quick (fun () ->
      let k, bindings_of = mk () in
      let go runner =
        try
          runner k (bindings_of ());
          Ok ()
        with e -> Error e
      in
      let r1 = go Interp.run and r2 = go (Launch.run ~workers:1 CE.compile) in
      (match r1 with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "legacy interpreter did not raise");
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

let oob_store_kernel () =
  let c = Buffer.create "C" [ 8 ] in
  let body = Stmt.store c [ Expr.Thread_idx ] (Expr.float 1.) in
  let k = Kernel.create ~name:"oob" ~params:[ c ] ~grid_dim:1 ~block_dim:32 body in
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

(* --- deterministic result-parity cases ------------------------------------ *)

let check_same_outputs name k bindings_of outputs =
  Alcotest.test_case name `Quick (fun () ->
      let run runner =
        let bs = bindings_of () in
        runner k bs;
        List.map (fun b -> List.assq b bs) outputs
      in
      let o1 = run Interp.run and o2 = run (Launch.run ~workers:1 CE.compile) in
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
          [ Expr.div Expr.Thread_idx (Expr.int 4);
            Expr.modulo Expr.Thread_idx (Expr.int 4) ]
          (Expr.load a
             [ Expr.div Expr.Thread_idx (Expr.int 4);
               Expr.modulo Expr.Thread_idx (Expr.int 4) ]);
        Stmt.store sb
          [ Expr.div Expr.Thread_idx (Expr.int 8);
            Expr.modulo Expr.Thread_idx (Expr.int 8) ]
          (Expr.load b
             [ Expr.div Expr.Thread_idx (Expr.int 8);
               Expr.modulo Expr.Thread_idx (Expr.int 8) ]);
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
             [ Expr.add
                 (Expr.mul (Expr.int r) (Expr.int 4))
                 (Expr.div Expr.Thread_idx (Expr.int 8));
               Expr.modulo Expr.Thread_idx (Expr.int 8) ]
             (Expr.load sc
                [ Expr.add
                    (Expr.mul (Expr.int r) (Expr.int 4))
                    (Expr.div Expr.Thread_idx (Expr.int 8));
                  Expr.modulo Expr.Thread_idx (Expr.int 8) ])))
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

let select_guard_kernel () =
  let a = Buffer.create "A" [ 8 ] and c = Buffer.create "C" [ 32 ] in
  let guarded =
    Expr.select
      (Expr.lt Expr.Thread_idx (Expr.int 8))
      (Expr.load a [ Expr.Thread_idx ])
      (Expr.float 0.)
  in
  let k =
    Kernel.create ~name:"guard" ~params:[ a; c ] ~grid_dim:1 ~block_dim:32
      (Stmt.store c [ Expr.Thread_idx ] guarded)
  in
  let bindings_of () =
    [ (a, Array.init 8 float_of_int); (c, Array.make 32 (-1.)) ]
  in
  (k, bindings_of, [ c ])

(* --- specialized closure forms ---------------------------------------------- *)

(* The register-accumulator FMA as [Matmul_template] emits it, run through
   the real template on a ragged problem (partial tiles, predicated loads). *)
let test_template_fma () =
  let c =
    Hidet_sched.Matmul_template.compile ~batch:1 ~m:20 ~n:24 ~k:12
      Hidet_sched.Matmul_template.default_config
  in
  let fma (s : Stmt.t) =
    match s with
    | Stmt.Store
        { value = Expr.Binop (Add, Load (acc, _), Binop (Mul, Load _, Load _)); buf; _ }
      ->
      Buffer.equal acc buf && Buffer.rank buf = 2
    | _ -> false
  in
  Alcotest.(check bool) "the template emits the rank-2 register FMA" true
    (List.exists (fun (k : Kernel.t) -> Stmt.count fma k.Kernel.body > 0)
       c.Hidet_sched.Compiled.kernels);
  let inputs =
    List.map
      (fun (b : Buffer.t) -> Hidet_tensor.Tensor.rand ~seed:b.Buffer.id b.Buffer.dims)
      c.Hidet_sched.Compiled.ins
  in
  let reference = Hidet_sched.Compiled.run ~legacy:true c inputs in
  let closure = Hidet_sched.Compiled.run c inputs in
  Alcotest.(check bool) "bit-identical to the reference" true
    (arrays_equal_bits
       (Hidet_tensor.Tensor.data reference)
       (Hidet_tensor.Tensor.data closure))

(* The same accumulator shape by hand, with [RegsAF] one row short: the FMA
   fails on its [a] operand, the only access out of bounds. *)
let fma_kernel ~af_rows () =
  let tm = 2 and tn = 4 in
  let a = Buffer.create "A" [ 32 * tm ] and b = Buffer.create "B" [ 32 * tn ] in
  let c = Buffer.create "C" [ 32 * tm * tn ] in
  let regs_c = Buffer.create ~scope:Buffer.Register "RegsC" [ tm; tn ] in
  let regs_af = Buffer.create ~scope:Buffer.Register "RegsAF" [ af_rows ] in
  let regs_bf = Buffer.create ~scope:Buffer.Register "RegsBF" [ tn ] in
  let i = Var.fresh "i" and j = Var.fresh "j" and kk = Var.fresh "kk" in
  let vi = Expr.var i and vj = Expr.var j in
  let tid = Expr.Thread_idx in
  let for_ = Stmt.for_ ~unroll:true in
  let body =
    Stmt.seq
      [
        for_ i (Expr.int tm)
          (for_ j (Expr.int tn) (Stmt.store regs_c [ vi; vj ] (Expr.float 0.)));
        Stmt.for_ kk (Expr.int 3)
          (Stmt.seq
             [
               for_ i (Expr.int (min tm af_rows))
                 (Stmt.store regs_af [ vi ]
                    (Expr.load a [ Expr.add (Expr.mul tid (Expr.int tm)) vi ]));
               for_ j (Expr.int tn)
                 (Stmt.store regs_bf [ vj ]
                    (Expr.mul
                       (Expr.load b [ Expr.add (Expr.mul tid (Expr.int tn)) vj ])
                       (Expr.add (Expr.var kk) (Expr.float 0.5))));
               for_ i (Expr.int tm)
                 (for_ j (Expr.int tn)
                    (Stmt.store regs_c [ vi; vj ]
                       (Expr.add
                          (Expr.load regs_c [ vi; vj ])
                          (Expr.mul (Expr.load regs_af [ vi ]) (Expr.load regs_bf [ vj ])))));
             ]);
        for_ i (Expr.int tm)
          (for_ j (Expr.int tn)
             (Stmt.store c
                [ Expr.add (Expr.mul tid (Expr.int (tm * tn)))
                    (Expr.add (Expr.mul vi (Expr.int tn)) vj) ]
                (Expr.load regs_c [ vi; vj ])));
      ]
  in
  let k =
    Kernel.create ~regs:[ regs_c; regs_af; regs_bf ] ~name:"fma"
      ~params:[ a; b; c ] ~grid_dim:1 ~block_dim:32 body
  in
  let bindings_of () =
    [
      (a, make_inputs 1 (32 * tm)); (b, make_inputs 2 (32 * tn));
      (c, Array.make (32 * tm * tn) 0.);
    ]
  in
  (k, bindings_of, [ c ])

(* Rank-1 and rank-2 accesses whose indices are constants and slots: every
   index combination of [A : 8] and [M : 4 x 6] read and written, in
   bounds. [x] and [y] are let-bound slots, [i] a loop slot. *)
let slot_access_kernel () =
  let a = Buffer.create "A" [ 8 ] and m = Buffer.create "M" [ 4; 6 ] in
  let c = Buffer.create "C" [ 32; 8 ] in
  let sm = Buffer.create ~scope:Buffer.Shared "Sm" [ 4; 6 ] in
  let x = Var.fresh "x" and y = Var.fresh "y" and i = Var.fresh "i" in
  let vx = Expr.var x and vy = Expr.var y and vi = Expr.var i in
  let tid = Expr.Thread_idx in
  let out col v = Stmt.store c [ tid; Expr.int col ] v in
  let body =
    Stmt.let_ x (Expr.modulo tid (Expr.int 4))
      (Stmt.let_ y (Expr.modulo tid (Expr.int 6))
         (Stmt.seq
            [
              Stmt.store sm [ vx; vy ] (Expr.load m [ vx; vy ]);
              Stmt.store sm [ Expr.int 3; vy ] (Expr.load m [ Expr.int 0; vy ]);
              Stmt.store sm [ vx; Expr.int 5 ] (Expr.load m [ vx; Expr.int 2 ]);
              Stmt.sync;
              out 0 (Expr.load a [ vx ]);
              out 1 (Expr.load a [ Expr.int 7 ]);
              out 2 (Expr.load m [ vx; vy ]);
              out 3 (Expr.load sm [ Expr.int 3; vy ]);
              out 4 (Expr.load sm [ vx; Expr.int 5 ]);
              out 5 (Expr.load m [ Expr.int 1; Expr.int 4 ]);
              Stmt.for_ i (Expr.int 2)
                (out 6
                   (Expr.add (Expr.load sm [ vi; vy ]) (Expr.load a [ vi ])));
              out 7
                (Expr.mul (Expr.load m [ vx; vy ]) (Expr.load sm [ vx; vy ]));
            ]))
  in
  let k =
    Kernel.create ~shared:[ sm ] ~name:"slots" ~params:[ a; m; c ]
      ~grid_dim:1 ~block_dim:32 body
  in
  let bindings_of () =
    [ (a, make_inputs 3 8); (m, make_inputs 4 24); (c, Array.make 256 0.) ]
  in
  (k, bindings_of, [ c ])

(* Out-of-bounds accesses of each form, on [A : 8] and [M : 4 x 6] in a
   32-thread block. The let-bound slots are [v = tid], [w = tid + 2] and
   [u = tid + 4], so [M\[v; w\]] first fails at thread 4 on both dims at
   once and [M\[u; 6\]] fails at thread 0 on both: the reference names the
   first dim, and so must every form. *)
let oob_access_kernel access () =
  let a = Buffer.create "A" [ 8 ] and m = Buffer.create "M" [ 4; 6 ] in
  let c = Buffer.create "C" [ 32 ] in
  let v = Var.fresh "v" and w = Var.fresh "w" and u = Var.fresh "u" in
  let tid = Expr.Thread_idx in
  let body =
    Stmt.let_ v tid
      (Stmt.let_ w (Expr.add tid (Expr.int 2))
         (Stmt.let_ u (Expr.add tid (Expr.int 4))
            (access ~a ~m ~c ~v:(Expr.var v) ~w:(Expr.var w) ~u:(Expr.var u))))
  in
  let k =
    Kernel.create ~name:"oob_access" ~params:[ a; m; c ] ~grid_dim:1
      ~block_dim:32 body
  in
  ( k,
    fun () ->
      [ (a, make_inputs 5 8); (m, make_inputs 6 24); (c, Array.make 32 0.) ] )

let load_into ~c e = Stmt.store c [ Expr.Thread_idx ] e

let oob_cases =
  [
    ( "rank-1 slot load",
      fun ~a ~m:_ ~c ~v ~w:_ ~u:_ -> load_into ~c (Expr.load a [ v ]) );
    ( "rank-1 constant load",
      fun ~a ~m:_ ~c ~v:_ ~w:_ ~u:_ -> load_into ~c (Expr.load a [ Expr.int 8 ]) );
    ( "rank-2 slot load, both dims",
      fun ~a:_ ~m ~c ~v ~w ~u:_ -> load_into ~c (Expr.load m [ v; w ]) );
    ( "rank-2 slot load, second dim",
      fun ~a:_ ~m ~c ~v:_ ~w ~u:_ -> load_into ~c (Expr.load m [ Expr.int 2; w ]) );
    ( "rank-2 slot and constant load, both dims",
      fun ~a:_ ~m ~c ~v:_ ~w:_ ~u -> load_into ~c (Expr.load m [ u; Expr.int 6 ]) );
    ( "rank-1 slot store",
      fun ~a ~m:_ ~c:_ ~v ~w:_ ~u:_ -> Stmt.store a [ v ] (Expr.float 1.) );
    ( "rank-1 constant store",
      fun ~a ~m:_ ~c:_ ~v:_ ~w:_ ~u:_ ->
        Stmt.store a [ Expr.int (-1) ] (Expr.float 1.) );
    ( "rank-2 slot store, both dims",
      fun ~a:_ ~m ~c:_ ~v ~w ~u:_ -> Stmt.store m [ v; w ] (Expr.float 1.) );
    ( "rank-2 slot store, second dim",
      fun ~a:_ ~m ~c:_ ~v:_ ~w ~u:_ -> Stmt.store m [ Expr.int 0; w ] (Expr.float 1.) );
    ( "rank-2 slot and constant store, both dims",
      fun ~a:_ ~m ~c:_ ~v:_ ~w:_ ~u -> Stmt.store m [ u; Expr.int 9 ] (Expr.float 1.) );
  ]

(* Int binops over every pair of operand forms: a constant, a let-bound
   slot, [threadIdx], and a general expression. Built with the raw
   constructors, so nothing folds. Divisors here are never zero; the
   dividends include negative values. Every result lands in [C], bools as
   1/0. *)
let int_ops =
  Expr.[ Add; Sub; Mul; Div; Mod; Min; Max; Lt; Le; Gt; Ge; Eq; Ne ]

let int_binop_kernel () =
  let s = Var.fresh "s" and d = Var.fresh "d" in
  let tid = Expr.Thread_idx in
  let general = Expr.Binop (Sub, Binop (Mul, tid, Int 3), Int 50) in
  let lefts = [ Expr.Int 7; Int (-9); Expr.var s; tid; general ] in
  let nonzero_general = Expr.Binop (Add, Binop (Mod, tid, Int 5), Int 1) in
  let rights ~divides =
    [ Expr.Int 4; Int 3; Int (-2); Int 1; Expr.var d; nonzero_general ]
    @ if divides then [] else [ tid; Expr.var s ]
  in
  let exprs =
    List.concat_map
      (fun op ->
        let divides = op = Expr.Div || op = Expr.Mod in
        List.concat_map
          (fun l -> List.map (fun r -> Expr.Binop (op, l, r)) (rights ~divides))
          lefts)
      int_ops
  in
  let n = List.length exprs in
  let c = Buffer.create "C" [ 32; n ] in
  let body =
    Stmt.let_ s (Expr.Binop (Sub, tid, Int 16))
      (Stmt.let_ d (Expr.Binop (Add, tid, Int 1))
         (Stmt.seq (List.mapi (fun i e -> Stmt.store c [ tid; Expr.int i ] e) exprs)))
  in
  let k =
    Kernel.create ~name:"int_binops" ~params:[ c ] ~grid_dim:1 ~block_dim:32 body
  in
  (k, (fun () -> [ (c, Array.make (32 * n) 0.) ]), [ c ])

(* [Div] and [Mod] by a constant 0 (the IR keeps it: only a non-zero
   divisor folds), and by [threadIdx], which is 0 on thread 0. *)
let div_by_zero_cases =
  let s = Var.fresh "s" in
  let tid = Expr.Thread_idx in
  let general = Expr.Binop (Add, tid, Int 2) in
  List.concat_map
    (fun (op, op_name) ->
      List.concat_map
        (fun (l, l_name) ->
          List.map
            (fun (r, r_name) ->
              ( Printf.sprintf "%s %s by %s" l_name op_name r_name,
                fun () ->
                  let c = Buffer.create "C" [ 32 ] in
                  let body =
                    Stmt.let_ s (Expr.Binop (Add, tid, Int 5))
                      (Stmt.store c [ tid ] (Expr.Binop (op, l, r)))
                  in
                  ( Kernel.create ~name:"div0" ~params:[ c ] ~grid_dim:1
                      ~block_dim:32 body,
                    fun () -> [ (c, Array.make 32 0.) ] ) ))
            [ (Expr.Int 0, "constant 0"); (tid, "threadIdx") ])
        [
          (Expr.Int 5, "constant"); (Expr.var s, "slot"); (tid, "threadIdx");
          (general, "general");
        ])
    [ (Expr.Div, "div"); (Expr.Mod, "mod") ]

(* --- hoisting and FMA-nest forms -------------------------------------------- *)

(* Each case runs on the reference, the closure backend and the native
   backend: outputs must be bit-identical to [Interp.run]'s and the closure
   backend must count the statements [Exec_ocaml] counts. Without a native
   toolchain the count check is skipped visibly. *)
module EO = Hidet_gpu.Exec_ocaml

let counter name = Hidet_obs.Metrics.(value (counter name))

let native_ok =
  lazy
    (match EO.available () with
    | Ok () -> true
    | Error reason ->
      Printf.printf "SKIP native statement counts: toolchain unavailable (%s)\n%!"
        reason;
      false)

(* Run [k] on [bindings_of ()] through [runner]; the [outputs] arrays, or
   the exception, and the [sim.statements] delta. *)
let run_counted runner k bindings_of outputs =
  let bs = bindings_of () in
  let s0 = counter "sim.statements" in
  let r =
    try
      runner k bs;
      Ok (List.map (fun b -> List.assq b bs) outputs)
    with e -> Error e
  in
  (r, counter "sim.statements" - s0)

let same_outputs r1 r2 =
  match (r1, r2) with
  | Ok x, Ok y -> List.for_all2 arrays_equal_bits x y
  | Error e1, Error e2 -> e1 = e2
  | _ -> false

let check_form_parity k bindings_of outputs =
  let legacy, _ = run_counted Interp.run k bindings_of outputs in
  let closure, n_closure = run_counted (Launch.run ~workers:1 CE.compile) k bindings_of outputs in
  Alcotest.(check bool) "outputs bit-identical to the reference" true
    (same_outputs legacy closure);
  if Lazy.force native_ok then begin
    let native, n_native = run_counted (Launch.run ~workers:1 EO.compile) k bindings_of outputs in
    Alcotest.(check bool) "native outputs bit-identical" true
      (same_outputs closure native);
    Alcotest.(check int) "statements counted as native counts them" n_native
      n_closure
  end

let form_case name mk =
  Alcotest.test_case name `Quick (fun () ->
      let k, b, o = mk () in
      check_form_parity k b o)

(* Every parameter bound to its own reproducible random array; all of them
   compared afterwards. *)
let random_params (k : Kernel.t) () =
  List.mapi
    (fun i (b : Buffer.t) -> (b, make_inputs (17 * (i + 1)) (Buffer.num_elems b)))
    k.Kernel.params

(* CUDA-core template configs covering register tiles [tm_], [tn_] of 1, 2,
   4, 8 and 16, stages 1-4 and split-k 1 and 2, on a ragged problem. *)
let template_configs =
  let cfg ~tm ~tn ~warps_m ~warps_n ~stages ~split_k =
    {
      Hidet_sched.Matmul_template.default_config with
      block_m = 4 * tm * warps_m;
      block_n = 8 * tn * warps_n;
      block_k = 8;
      warp_m = 4 * tm;
      warp_n = 8 * tn;
      stages;
      split_k;
    }
  in
  [
    cfg ~tm:1 ~tn:1 ~warps_m:1 ~warps_n:1 ~stages:1 ~split_k:1;
    cfg ~tm:2 ~tn:16 ~warps_m:1 ~warps_n:1 ~stages:2 ~split_k:2;
    cfg ~tm:4 ~tn:2 ~warps_m:2 ~warps_n:2 ~stages:3 ~split_k:1;
    cfg ~tm:8 ~tn:4 ~warps_m:1 ~warps_n:2 ~stages:4 ~split_k:2;
    cfg ~tm:16 ~tn:1 ~warps_m:1 ~warps_n:2 ~stages:2 ~split_k:1;
    cfg ~tm:16 ~tn:8 ~warps_m:1 ~warps_n:1 ~stages:1 ~split_k:2;
    cfg ~tm:1 ~tn:16 ~warps_m:1 ~warps_n:1 ~stages:3 ~split_k:2;
  ]

let template_case (cfg : Hidet_sched.Matmul_template.config) =
  let name = "template " ^ Hidet_sched.Matmul_template.config_to_string cfg in
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) "valid config" true
        (Hidet_sched.Matmul_template.check cfg = Ok ());
      let c = Hidet_sched.Matmul_template.compile ~batch:1 ~m:13 ~n:37 ~k:19 cfg in
      List.iter
        (fun (k : Kernel.t) -> check_form_parity k (random_params k) k.Kernel.params)
        c.Hidet_sched.Compiled.kernels)

(* [fma_kernel]'s nest in two forms that keep the general path: [RegsBF]
   indexed by [(j + tid) % tn], a slot index; or ([mixed]) a second store
   with its product's operands swapped, so the stores use two buffer
   sets. *)
let fma_fallback_kernel ~mixed () =
  let tm = 2 and tn = 4 in
  let a = Buffer.create "A" [ 32 * tm ] and b = Buffer.create "B" [ 32 * tn ] in
  let c = Buffer.create "C" [ 32 * tm * tn ] in
  let regs_c = Buffer.create ~scope:Buffer.Register "RegsC" [ tm; tn ] in
  let regs_af = Buffer.create ~scope:Buffer.Register "RegsAF" [ tm ] in
  let regs_bf = Buffer.create ~scope:Buffer.Register "RegsBF" [ tn ] in
  let i = Var.fresh "i" and j = Var.fresh "j" in
  let vi = Expr.var i and vj = Expr.var j in
  let tid = Expr.Thread_idx in
  let for_ = Stmt.for_ ~unroll:true in
  let fma y z =
    Stmt.store regs_c [ vi; vj ]
      (Expr.add (Expr.load regs_c [ vi; vj ]) (Expr.mul y z))
  in
  let af = Expr.load regs_af [ vi ] and bf = Expr.load regs_bf [ vj ] in
  let nest_body =
    if mixed then Stmt.seq [ fma af bf; fma bf af ]
    else fma af (Expr.load regs_bf [ Expr.Binop (Mod, Binop (Add, vj, tid), Int tn) ])
  in
  let body =
    Stmt.seq
      [
        for_ i (Expr.int tm)
          (Stmt.store regs_af [ vi ]
             (Expr.load a [ Expr.add (Expr.mul tid (Expr.int tm)) vi ]));
        for_ j (Expr.int tn)
          (Stmt.store regs_bf [ vj ]
             (Expr.load b [ Expr.add (Expr.mul tid (Expr.int tn)) vj ]));
        for_ i (Expr.int tm) (for_ j (Expr.int tn) nest_body);
        for_ i (Expr.int tm)
          (for_ j (Expr.int tn)
             (Stmt.store c
                [ Expr.add (Expr.mul tid (Expr.int (tm * tn)))
                    (Expr.add (Expr.mul vi (Expr.int tn)) vj) ]
                (Expr.load regs_c [ vi; vj ])));
      ]
  in
  let k =
    Kernel.create ~regs:[ regs_c; regs_af; regs_bf ] ~name:"fma_fallback"
      ~params:[ a; b; c ] ~grid_dim:1 ~block_dim:32 body
  in
  (k, random_params k, [ c ])

(* How many nests, and how many FMA nests, compiling [k] found. *)
let nests_of k =
  let n0 = counter "sim.compile.nests" and f0 = counter "sim.compile.fma_nests" in
  ignore (CE.compile k);
  (counter "sim.compile.nests" - n0, counter "sim.compile.fma_nests" - f0)

(* The statements a launch executes, counted on the IR: each thread walks
   the statement tree, evaluating loop extents, [Let] values and [If]
   conditions that read no memory ([Let]s of a load bind 0, which nothing
   here tests). Both compiled backends take a nest's count from their own
   analysis, so this is a count neither of them computes. *)
let ir_count (k : Kernel.t) =
  let total = ref 0 in
  for bid = 0 to k.grid_dim - 1 do
    for tid = 0 to k.block_dim - 1 do
      let rec go env (s : Stmt.t) =
        let ev e =
          Expr.eval
            {
              lookup = (fun v -> List.assoc v.Var.id env);
              load = (fun _ _ -> raise Exit);
              thread_idx = tid;
              block_idx = bid;
            }
            e
        in
        match s with
        | Stmt.Seq ss -> List.fold_left (fun n s -> n + go env s) 0 ss
        | For { var; extent; body; _ } ->
          let n = ref 1 in
          for i = 0 to Expr.int_of_value (ev extent) - 1 do
            n := !n + go ((var.Var.id, Expr.V_int i) :: env) body
          done;
          !n
        | Let { var; value; body } ->
          let v = try ev value with Exit -> Expr.V_int 0 in
          1 + go ((var.Var.id, v) :: env) body
        | If { cond; then_; else_ } ->
          1
          +
          if Expr.bool_of_value (ev cond) then go env then_
          else Option.fold ~none:0 ~some:(go env) else_
        | Store _ | Comment _ | Sync_threads | Mma _ -> 1
      in
      total := !total + go [] k.body
    done
  done;
  !total

let nest_case name mk ~nests ~fma =
  Alcotest.test_case name `Quick (fun () ->
      let k, b, o = mk () in
      let n, f = nests_of k in
      Alcotest.(check int) "FMA nests" fma f;
      Alcotest.(check int) "nests" nests n;
      check_form_parity k b o;
      let _, counted = run_counted (Launch.run ~workers:1 CE.compile) k b o in
      Alcotest.(check int) "statements counted on the IR" (ir_count k) counted)

(* A 64-thread block writing [cols] values per thread into [C : 64 x cols];
   [body ~out] builds the statements from [out col value]. *)
let per_thread_kernel ~name ~cols body =
  let c = Buffer.create "C" [ 64; cols ] in
  let out col v = Stmt.store c [ Expr.Thread_idx; col ] v in
  let k = Kernel.create ~name ~params:[ c ] ~grid_dim:2 ~block_dim:64 (body ~out) in
  (k, (fun () -> [ (c, Array.make (64 * cols) (-1.)) ]), [ c ])

let tid = Expr.Thread_idx

(* A division by [threadIdx] in a branch thread 0 never takes: hoisted, it
   would raise on thread 0. *)
let div_by_tid_in_branch () =
  per_thread_kernel ~name:"div_tid" ~cols:1 (fun ~out ->
      Stmt.if_
        (Expr.Binop (Gt, tid, Int 0))
        (out (Expr.int 0)
           (Expr.Binop (Div, Binop (Add, Binop (Mul, tid, Int 100), Int 7), tid))))

(* Constant-divisor arithmetic in a branch no thread takes, indexing far
   out of bounds, next to a modulo by a constant 0. *)
let const_div_in_dead_branch () =
  per_thread_kernel ~name:"dead_branch" ~cols:2 (fun ~out ->
      Stmt.seq
        [
          out (Expr.int 0) (Expr.Binop (Div, Binop (Sub, tid, Int 40), Int 3));
          Stmt.if_
            (Expr.Binop (Gt, tid, Int 1000))
            (Stmt.seq
               [
                 out
                   (Expr.Binop (Add, Binop (Div, Binop (Mul, tid, Int 3), Int 7), Int 1000))
                   (Expr.float 1.);
                 out (Expr.int 1) (Expr.Binop (Mod, Binop (Add, tid, Int 1), Int 0));
               ]);
        ])

(* One expression over the loop variable in two sibling loops binding the
   same variable: each loop needs its own slot, computed per iteration. The
   thread-invariant [(tid / 8) % 4] may share one. *)
let sibling_loops () =
  let i = Var.fresh "i" in
  let vi = Expr.var i in
  let e =
    Expr.Binop
      (Add,
       Binop (Mod, Binop (Div, Binop (Add, Binop (Mul, vi, Int 3), tid), Int 2), Int 5),
       Binop (Mod, Binop (Div, tid, Int 8), Int 4))
  in
  per_thread_kernel ~name:"siblings" ~cols:7 (fun ~out ->
      Stmt.seq
        [
          Stmt.for_ i (Expr.int 4) (out vi e);
          Stmt.for_ i (Expr.int 3) (out (Expr.Binop (Add, vi, Int 4)) e);
        ])

(* One variable bound by four sibling [Let]s: two to invariant values (the
   variable shares the value's slot), two to a [Select] (a binder slot). *)
let rebound_let () =
  let x = Var.fresh "x" in
  let vx = Expr.var x in
  let sel a b = Expr.Select (Expr.Binop (Lt, tid, Int 16), a, b) in
  per_thread_kernel ~name:"rebound" ~cols:4 (fun ~out ->
      let use col =
        out (Expr.int col)
          (Expr.Binop (Add, Binop (Mod, Binop (Div, vx, Int 3), Int 4), vx))
      in
      Stmt.seq
        [
          Stmt.let_ x (Expr.Binop (Add, Binop (Mul, tid, Int 2), Int 1)) (use 0);
          Stmt.let_ x (Expr.Binop (Add, Binop (Mul, tid, Int 5), Int 2)) (use 1);
          Stmt.let_ x (sel (Expr.Binop (Mul, tid, Int 7)) (Expr.Int 3)) (use 2);
          Stmt.let_ x (sel (Expr.Int 11) (Expr.Binop (Sub, tid, Int 9))) (use 3);
        ])

(* The task-mapping chain [lane = tid % 32], [q = lane / 8 % 4], and the
   same arithmetic again inside a loop. *)
let lane_chain () =
  let lane = Var.fresh "lane" and q = Var.fresh "q" and r = Var.fresh "r" in
  let vlane = Expr.var lane and vr = Expr.var r in
  let quad = Expr.Binop (Mod, Binop (Div, vlane, Int 8), Int 4) in
  per_thread_kernel ~name:"lane" ~cols:3 (fun ~out ->
      Stmt.let_ lane (Expr.Binop (Mod, tid, Int 32))
        (Stmt.let_ q quad
           (Stmt.seq
              [
                out (Expr.int 0)
                  (Expr.Binop
                     (Add, Binop (Mul, Expr.var q, Int 10), Binop (Mod, vlane, Int 8)));
                Stmt.for_ r (Expr.int 2)
                  (out
                     (Expr.Binop (Add, vr, Int 1))
                     (Expr.Binop
                        (Add, Binop (Mul, quad, vr),
                         Binop (Div, Binop (Mod, vlane, Int 8), Int 2))));
              ])))

(* A register nest around a 32-thread block: [A : 32 x 4] in, [C : 32 x 4]
   out, registers [R : 4] and [M : 2 x 3]. *)
let reg_nest_kernel ~name body =
  let a = Buffer.create "A" [ 32; 4 ] and c = Buffer.create "C" [ 32; 4 ] in
  let r = Buffer.create ~scope:Buffer.Register "R" [ 4 ] in
  let m = Buffer.create ~scope:Buffer.Register "M" [ 2; 3 ] in
  let k =
    Kernel.create ~regs:[ r; m ] ~name ~params:[ a; c ] ~grid_dim:2 ~block_dim:32
      (body ~a ~c ~r ~m)
  in
  (k, random_params k, [ c ])

let unrolled v n body = Stmt.for_ ~unroll:true v (Expr.int n) body

(* Copies whose indices have slot-invariant parts: [A]'s row is [threadIdx],
   its column the loop variable plus a let-bound [threadIdx / 16]; [C]'s
   row goes through a hoisted [threadIdx * 1], and [R] is read reversed. *)
let copy_nest_kernel () =
  reg_nest_kernel ~name:"copy_nest" (fun ~a ~c ~r ~m:_ ->
      let i = Var.fresh "i" and h = Var.fresh "h" in
      let vi = Expr.var i in
      Stmt.let_ h (Expr.Binop (Div, tid, Int 16))
        (Stmt.seq
           [
             unrolled i 3
               (Stmt.store r [ vi ]
                  (Expr.load a [ tid; Expr.Binop (Add, vi, Expr.var h) ]));
             unrolled i 3
               (Stmt.store c
                  [ Expr.Binop (Mul, tid, Int 1); Expr.Binop (Add, Int 1, vi) ]
                  (Expr.load r [ Expr.Binop (Sub, Int 2, vi) ]));
           ]))

(* Constant fills, float and int, of a rank-2 and a rank-1 register, read
   back into [C]. *)
let fill_nest_kernel () =
  reg_nest_kernel ~name:"fill_nest" (fun ~a:_ ~c ~r ~m ->
      let i = Var.fresh "i" and j = Var.fresh "j" in
      let vi = Expr.var i and vj = Expr.var j in
      Stmt.seq
        [
          unrolled i 2 (unrolled j 3 (Stmt.store m [ vi; vj ] (Expr.Float 1.5)));
          unrolled i 4 (Stmt.store r [ vi ] (Expr.Int (-2)));
          Stmt.store c [ tid; Expr.int 0 ] (Expr.load m [ Expr.int 1; Expr.int 2 ]);
          Stmt.store c [ tid; Expr.int 3 ] (Expr.load r [ Expr.int 3 ]);
        ])

(* [A\[(j + threadIdx) % 4\]]: the loop variable under a modulo with
   [threadIdx] is not affine, so the nest stays general. *)
let rotated_nest_kernel () =
  reg_nest_kernel ~name:"rotated_nest" (fun ~a ~c ~r ~m:_ ->
      let j = Var.fresh "j" in
      let vj = Expr.var j in
      Stmt.seq
        [
          unrolled j 4
            (Stmt.store r [ vj ]
               (Expr.load a [ tid; Expr.Binop (Mod, Binop (Add, vj, tid), Int 4) ]));
          Stmt.store c [ tid; Expr.int 2 ] (Expr.load r [ Expr.int 1 ]);
        ])

(* A copy nest into [G : g] at [threadIdx + 12 j], [j < 3]: with [g = 40]
   threads 0-15 are in range and thread 16's third store is the first out
   of bounds, after its first two; with [g = 56] every thread is in range. *)
let oob_nest_kernel ~g () =
  let a = Buffer.create "A" [ 64 ] and out = Buffer.create "G" [ g ] in
  let j = Var.fresh "j" in
  let vj = Expr.var j in
  let k =
    Kernel.create ~name:"oob_nest" ~params:[ a; out ] ~grid_dim:1 ~block_dim:32
      (unrolled j 3
         (Stmt.store out
            [ Expr.Binop (Add, tid, Binop (Mul, vj, Int 12)) ]
            (Expr.load a [ Expr.Binop (Add, vj, tid) ])))
  in
  (k, random_params k)

let test_oob_nest () =
  let k, bindings_of = oob_nest_kernel ~g:40 () in
  Alcotest.(check (pair int int)) "nests" (1, 0) (nests_of k);
  ignore
    (Phase_cases.check_against_interp ~phased:false (Launch.run ~workers:1 CE.compile)
       (k, bindings_of));
  if Lazy.force native_ok then
    ignore
      (Phase_cases.check_against_interp ~phased:false (Launch.run ~workers:1 EO.compile)
         (k, bindings_of));
  let k, bindings_of = oob_nest_kernel ~g:56 () in
  check_form_parity k bindings_of k.Kernel.params;
  let _, counted = run_counted (Launch.run ~workers:1 CE.compile) k bindings_of [] in
  Alcotest.(check int) "statements counted on the IR" (ir_count k) counted

(* [C\[tid\] = Select(tid < 1, 3, 2.0) / 2] and the same with the branches'
   types swapped: [Expr.eval] types a [Select] by the branch taken, so
   thread 0 stores 1 in the first column and every thread from 1 on 1 in
   the second, on every executor. *)
let mixed_select_kernel () =
  per_thread_kernel ~name:"mixed_select" ~cols:2 (fun ~out ->
      let first = Expr.Binop (Lt, tid, Int 1) in
      Stmt.seq
        [
          out (Expr.int 0)
            (Expr.Binop (Div, Select (first, Int 3, Float 2.), Int 2));
          out (Expr.int 1)
            (Expr.Binop (Div, Select (first, Float 2., Int 3), Int 2));
        ])

(* An [unroll] nest whose subtree holds only loops and stores, none with a
   [Select] or a branch: what a nest can take. *)
let rec has_select (e : Expr.t) =
  match e with
  | Expr.Select _ -> true
  | Load (_, idx) -> List.exists has_select idx
  | Unop (_, a) -> has_select a
  | Binop (_, a, b) -> has_select a || has_select b
  | Int _ | Float _ | Bool _ | Var _ | Thread_idx | Block_idx -> false

let rec nest_candidates (s : Stmt.t) =
  let rec plain (s : Stmt.t) =
    match s with
    | Stmt.For { body; _ } -> plain body
    | Seq ss -> List.for_all plain ss
    | Store { value; indices; _ } ->
      not (has_select value || List.exists has_select indices)
    | _ -> false
  in
  match s with
  | Stmt.For { unroll = true; _ } -> if plain s then 1 else 0
  | For { body; _ } | Let { body; _ } -> nest_candidates body
  | Seq ss -> List.fold_left (fun n s -> n + nest_candidates s) 0 ss
  | If { then_; else_; _ } ->
    nest_candidates then_ + Option.fold ~none:0 ~some:nest_candidates else_
  | Store _ | Mma _ | Sync_threads | Comment _ -> 0

(* Every matmul of the hidet engine's tiny-model plans takes every nest it
   has: the accumulator fill, both fragment loads and the FMA, and with
   double buffering both shared-memory staging copies. *)
let test_tiny_matmul_nests () =
  let matmuls =
    List.filter
      (fun (name, _) ->
        String.starts_with ~prefix:"hidet/" name
        && String.starts_with ~prefix:"matmul_" (Filename.basename name))
      (Phase_cases.tiny_kernels ())
  in
  Alcotest.(check int) "tiny-model matmuls" 20 (List.length matmuls);
  List.iter
    (fun (name, (k : Kernel.t)) ->
      let candidates = nest_candidates k.body in
      Alcotest.(check bool) (name ^ ": four nests or more") true (candidates >= 4);
      Alcotest.(check (pair int int))
        (name ^ ": nests taken") (candidates, 1) (nests_of k))
    matmuls

(* --- lane nests ---------------------------------------------------------- *)

(* How many lane nests compiling [k] found. *)
let lanes_of k =
  let n0 = counter "sim.compile.lane_nests" in
  ignore (CE.compile k);
  counter "sim.compile.lane_nests" - n0

(* The closure and native backends against [Interp]: the exception, every
   bound array, and the statement count against the IR's and each other's
   (a launch that raises counts none). *)
let lane_case name ~lanes mk =
  Alcotest.test_case name `Quick (fun () ->
      let k, bindings_of = mk () in
      Alcotest.(check int) "lane nests" lanes (lanes_of k);
      let run compile =
        Phase_cases.check_against_interp ~phased:false
          (Launch.run ~workers:1 compile)
          (k, bindings_of)
      in
      let n_closure = run CE.compile in
      (match Interp.run k (bindings_of ()) with
      | () -> Alcotest.(check int) "statements counted on the IR" (ir_count k) n_closure
      | exception _ -> Alcotest.(check int) "a launch that raises counts none" 0 n_closure);
      if Lazy.force native_ok then
        Alcotest.(check int) "statements counted as native counts them" (run EO.compile)
          n_closure)

let loop v n body = Stmt.for_ v (Expr.int n) body

(* A fused epilogue over a 2 x 2 register tile: thread [t] stores element
   [(i, j)] to [C : 16 x 8] at [x = 4t + 2i + j], written [C\[x / 8\]\[x % 8\]],
   when [2t + i < 50] and [j + t % 3 < 3]: all four on some threads, part
   of the tile on others, none on threads 25 and up. *)
let guarded_epilogue () =
  let a = Buffer.create "A" [ 128 ] and s = Buffer.create "S" [ 2 ] in
  let c = Buffer.create "C" [ 16; 8 ] in
  let r = Buffer.create ~scope:Buffer.Register "R" [ 2; 2 ] in
  let i = Var.fresh "i" and j = Var.fresh "j" in
  let vi = Expr.var i and vj = Expr.var j in
  let x = Expr.Binop (Add, Binop (Mul, tid, Int 4), Binop (Add, Binop (Mul, vi, Int 2), vj)) in
  let body =
    Stmt.seq
      [
        unrolled i 2 (unrolled j 2 (Stmt.store r [ vi; vj ] (Expr.load a [ x ])));
        unrolled i 2
          (unrolled j 2
             (Stmt.if_
                (Expr.Binop
                   ( And,
                     Binop (Lt, Binop (Add, Binop (Mul, tid, Int 2), vi), Int 50),
                     Binop (Lt, Binop (Add, vj, Binop (Mod, tid, Int 3)), Int 3) ))
                (Stmt.store c
                   [ Expr.Binop (Div, x, Int 8); Binop (Mod, x, Int 8) ]
                   (Expr.Binop
                      ( Max,
                        Binop
                          (Add, Binop (Mul, Load (r, [ vi; vj ]), Load (s, [ vj ])), Float 1.5),
                        Int 0 )))));
      ]
  in
  let k =
    Kernel.create ~regs:[ r ] ~name:"guarded_epilogue" ~params:[ a; s; c ] ~grid_dim:1
      ~block_dim:32 body
  in
  (k, random_params k)

(* [G\[4t + j\] = j <> 3 ? A\[t + 4j\] : 0] over [A : 35]: lane 3 never reads,
   and thread 27's third element is the first to read out of bounds, after
   its first two stores and every earlier thread's. *)
let predicated_oob () =
  let a = Buffer.create "A" [ 35 ] and g = Buffer.create "G" [ 128 ] in
  let j = Var.fresh "j" in
  let vj = Expr.var j in
  let k =
    Kernel.create ~name:"predicated_oob" ~params:[ a; g ] ~grid_dim:1 ~block_dim:32
      (unrolled j 4
         (Stmt.store g
            [ Expr.Binop (Add, Binop (Mul, tid, Int 4), vj) ]
            (Expr.Select
               ( Binop (Ne, vj, Int 3),
                 Load (a, [ Binop (Add, tid, Binop (Mul, vj, Int 4)) ]),
                 Int 0 ))))
  in
  (k, random_params k)

(* The same loads guarded by their own bound, and a store guarded by its:
   the lanes out of bounds are never taken, so nothing raises. *)
let untaken_oob () =
  let a = Buffer.create "A" [ 35 ] and g = Buffer.create "G" [ 128 ] in
  let h = Buffer.create "H" [ 100 ] in
  let j = Var.fresh "j" and u = Var.fresh "u" in
  let at v = Expr.Binop (Add, tid, Binop (Mul, Expr.var v, Int 4)) in
  let flat v = Expr.Binop (Add, Binop (Mul, tid, Int 4), Expr.var v) in
  let k =
    Kernel.create ~name:"untaken_oob" ~params:[ a; g; h ] ~grid_dim:1 ~block_dim:32
      (Stmt.seq
         [
           unrolled j 4
             (Stmt.store g [ flat j ]
                (Expr.Select (Binop (Lt, at j, Int 35), Load (a, [ at j ]), Float 0.5)));
           loop u 4
             (Stmt.if_
                (Expr.Binop (Lt, flat u, Int 100))
                (Stmt.store h [ flat u ] (Expr.Binop (Mul, Load (g, [ flat u ]), Float 2.))));
         ])
  in
  (k, random_params k)

(* [Y\[2t + j\] = X\[2t + 1 - j\] + 1]: bound to one array, the second
   element reads what the first stored, so the nest runs as the reference
   runs it. The store sits in a one-statement [Seq], which counts no
   statement on any path. *)
let aliased_params () =
  let x = Buffer.create "X" [ 64 ] and y = Buffer.create "Y" [ 64 ] in
  let j = Var.fresh "j" in
  let vj = Expr.var j in
  let two_t = Expr.Binop (Mul, tid, Int 2) in
  let k =
    Kernel.create ~name:"aliased" ~params:[ x; y ] ~grid_dim:1 ~block_dim:32
      (unrolled j 2
         (Stmt.Seq
            [
              Stmt.store y
                [ Expr.Binop (Add, two_t, vj) ]
                (Expr.Binop
                   (Add, Load (x, [ Binop (Add, two_t, Binop (Sub, Int 1, vj)) ]), Float 1.));
            ]))
  in
  ( k,
    fun () ->
      let arr = make_inputs 29 64 in
      [ (x, arr); (y, arr) ] )

(* A 3 x 3 window sum into a register, as the rule convolution and pooling
   kernels run it, over inputs with NaNs of two payloads, infinities and
   zeros of both signs: the fold must keep the reference's order bit for
   bit. *)
let nan_window () =
  let n = 64 in
  let inp = Buffer.create "In" [ n + 8 ] and w = Buffer.create "W" [ 3; 3 ] in
  let out = Buffer.create "Out" [ n ] in
  let acc = Buffer.create ~scope:Buffer.Register "acc" [ 1 ] in
  let u = Var.fresh "u" and v = Var.fresh "v" in
  let vu = Expr.var u and vv = Expr.var v in
  let gid = Expr.Binop (Add, Binop (Mul, Block_idx, Int 32), tid) in
  let idx = Expr.Binop (Add, gid, Binop (Add, Binop (Mul, vu, Int 3), vv)) in
  let k =
    Kernel.create ~regs:[ acc ] ~name:"nan_window" ~params:[ inp; w; out ] ~grid_dim:2
      ~block_dim:32
      (Stmt.seq
         [
           Stmt.store acc [ Expr.int 0 ] (Expr.Float (-0.));
           loop u 3
             (loop v 3
                (Stmt.store acc [ Expr.int 0 ]
                   (Expr.Binop
                      ( Add,
                        Load (acc, [ Expr.int 0 ]),
                        Select
                          ( Binop (Ne, Binop (Mod, Binop (Add, tid, vv), Int 5), Int 4),
                            Binop (Mul, Load (inp, [ idx ]), Load (w, [ vu; vv ])),
                            Int 0 ) ))));
           Stmt.store out [ gid ] (Expr.load acc [ Expr.int 0 ]);
         ])
  in
  let specials =
    [|
      Float.nan; Int64.float_of_bits 0x7ff8_0000_0000_0abcL; Int64.float_of_bits 0xfff4_0000_0000_1234L;
      0.; -0.; Float.infinity; Float.neg_infinity; 1.5; -2.25;
    |]
  in
  let pick seed len =
    let rng = Random.State.make [| seed |] in
    Array.init len (fun _ -> specials.(Random.State.int rng (Array.length specials)))
  in
  ( k,
    fun () -> [ (inp, pick 1 (n + 8)); (w, pick 2 9); (out, Array.make n 0.) ] )

(* An index divided by a loop variable could raise: the nest keeps its
   ordinary code. *)
let lane_div_index () =
  let a = Buffer.create "A" [ 64 ] and c = Buffer.create "C" [ 128 ] in
  let j = Var.fresh "j" in
  let vj = Expr.var j in
  let k =
    Kernel.create ~name:"lane_div" ~params:[ a; c ] ~grid_dim:1 ~block_dim:32
      (unrolled j 4
         (Stmt.store c
            [ Expr.Binop (Add, Binop (Mul, tid, Int 4), vj) ]
            (Expr.Select
               ( Binop (Lt, vj, Int 3),
                 Load (a, [ Binop (Div, Binop (Add, tid, vj), Binop (Add, vj, Int 1)) ]),
                 Int 0 ))))
  in
  (k, random_params k)

(* A nest that [Launch.nest] refuses whose leaf is a store guarded by an
   [If], or whose value has a [Select]: what a lane nest takes. *)
let rec lane_candidates (s : Stmt.t) =
  let rec leaf (s : Stmt.t) =
    match s with
    | Stmt.For { extent = Int _; body; _ } | Seq [ body ] -> leaf body
    | If { then_ = Store _; else_ = None; _ } -> true
    | Store { value; _ } -> has_select value
    | _ -> false
  in
  match s with
  | Stmt.For { extent = Int _; _ } when Launch.nest s = None && leaf s -> 1
  | For { body; _ } | Let { body; _ } -> lane_candidates body
  | Seq ss -> List.fold_left (fun n s -> n + lane_candidates s) 0 ss
  | If { then_; else_; _ } ->
    lane_candidates then_ + Option.fold ~none:0 ~some:lane_candidates else_
  | Store _ | Mma _ | Sync_threads | Comment _ -> 0

(* Every matmul of the hidet engine's tiny-model plans takes its
   predicated global loads (two, four with double buffering) and its
   guarded epilogue as lane nests, and the rule convolution and pooling
   kernels their window loops. *)
let test_tiny_lane_nests () =
  let hidet =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"hidet/" name)
      (Phase_cases.tiny_kernels ())
  in
  let named prefix =
    List.filter (fun (name, _) -> String.starts_with ~prefix (Filename.basename name)) hidet
  in
  let matmuls = named "matmul_" in
  Alcotest.(check int) "tiny-model matmuls" 20 (List.length matmuls);
  List.iter
    (fun (name, (k : Kernel.t)) ->
      let candidates = lane_candidates k.body in
      Alcotest.(check bool) (name ^ ": three lane nests or more") true (candidates >= 3);
      Alcotest.(check int) (name ^ ": lane nests taken") candidates (lanes_of k))
    matmuls;
  let windows = named "rule_dwconv" @ named "rule_avgpool" in
  Alcotest.(check int) "rule convolution and pooling kernels" 2 (List.length windows);
  List.iter
    (fun (name, (k : Kernel.t)) ->
      Alcotest.(check int) (name ^ ": window loop taken") 1 (lanes_of k))
    windows

(* The [Matmul_template] kernel exercises both forms. *)
let test_template_counters () =
  let c =
    Hidet_sched.Matmul_template.compile ~batch:1 ~m:20 ~n:24 ~k:12
      Hidet_sched.Matmul_template.default_config
  in
  let k = List.hd c.Hidet_sched.Compiled.kernels in
  let h0 = counter "sim.compile.hoisted" in
  Alcotest.(check bool) "FMA nests" true (snd (nests_of k) > 0);
  Alcotest.(check bool) "hoisted subexpressions" true
    (counter "sim.compile.hoisted" - h0 > 0)

(* --- parallel-grid gate unit checks --------------------------------------- *)

let vadd_kernel () =
  let n = 128 in
  let a = Buffer.create "A" [ n ] and c = Buffer.create "C" [ n ] in
  let gid = Expr.add (Expr.mul Expr.Block_idx (Expr.int 32)) Expr.Thread_idx in
  ( Kernel.create ~name:"vadd" ~params:[ a; c ] ~grid_dim:4 ~block_dim:32
      (Stmt.store c [ gid ] (Expr.add (Expr.load a [ gid ]) (Expr.float 1.))),
    a,
    c )

let test_gate_accepts_block_indexed () =
  let k, _, _ = vadd_kernel () in
  Alcotest.(check bool) "disjoint" true (Verify.block_disjoint_writes k)

let test_gate_accepts_let_tainted () =
  let n = 64 in
  let c = Buffer.create "C" [ n ] in
  let x = Var.fresh "x" in
  let gid = Expr.add (Expr.mul Expr.Block_idx (Expr.int 32)) Expr.Thread_idx in
  let k =
    Kernel.create ~name:"lt" ~params:[ c ] ~grid_dim:2 ~block_dim:32
      (Stmt.let_ x gid (Stmt.store c [ Expr.var x ] (Expr.float 1.)))
  in
  Alcotest.(check bool) "let-bound taint flows" true
    (Verify.block_disjoint_writes k)

let test_gate_rejects_thread_only_index () =
  let c = Buffer.create "C" [ 32 ] in
  let k =
    Kernel.create ~name:"collide" ~params:[ c ] ~grid_dim:2 ~block_dim:32
      (Stmt.store c [ Expr.Thread_idx ] (Expr.float 1.))
  in
  Alcotest.(check bool) "colliding blocks rejected" false
    (Verify.block_disjoint_writes k)

let test_gate_rejects_read_write_buffer () =
  let n = 64 in
  let c = Buffer.create "C" [ n ] in
  let gid = Expr.add (Expr.mul Expr.Block_idx (Expr.int 32)) Expr.Thread_idx in
  let k =
    Kernel.create ~name:"rw" ~params:[ c ] ~grid_dim:2 ~block_dim:32
      (Stmt.store c [ gid ] (Expr.add (Expr.load c [ gid ]) (Expr.float 1.)))
  in
  Alcotest.(check bool) "read+write global rejected" false
    (Verify.block_disjoint_writes k)

let test_gate_rejects_for_bound_taint () =
  (* A [For]-bound variable ranges from 0 in every block: it must not count
     as block-dependent even when its extent does. *)
  let c = Buffer.create "C" [ 64 ] in
  let i = Var.fresh "i" in
  let k =
    Kernel.create ~name:"forv" ~params:[ c ] ~grid_dim:2 ~block_dim:1
      (Stmt.for_ i
         (Expr.add Expr.Block_idx (Expr.int 2))
         (Stmt.store c [ Expr.var i ] (Expr.float 1.)))
  in
  Alcotest.(check bool) "for-var not tainted" false
    (Verify.block_disjoint_writes k)

(* --- observability counters ----------------------------------------------- *)

let test_metrics_counters () =
  let k, a, c = vadd_kernel () in
  let before_threads = Hidet_obs.Metrics.(value (counter "sim.threads")) in
  let before_stmts = Hidet_obs.Metrics.(value (counter "sim.statements")) in
  Launch.run CE.compile k [ (a, Array.make 128 1.); (c, Array.make 128 0.) ];
  let d_threads =
    Hidet_obs.Metrics.(value (counter "sim.threads")) - before_threads
  in
  let d_stmts =
    Hidet_obs.Metrics.(value (counter "sim.statements")) - before_stmts
  in
  Alcotest.(check int) "threads counted" (Kernel.num_threads k) d_threads;
  Alcotest.(check bool) "statements counted" true (d_stmts >= 128)

(* A launch reports what ran: without [~workers], its blocks count as
   parallel only where the default worker count runs them on domains (not
   on a 2-vCPU host, where it is 1), and its [sim.exec] span says the
   same. *)
let test_parallel_counters () =
  let k, a, c = vadd_kernel () in
  let compiled = CE.compile k in
  let par = Hidet_obs.Metrics.counter "sim.parallel_blocks"
  and seq = Hidet_obs.Metrics.counter "sim.sequential_blocks" in
  let launch ?workers () =
    let p0 = Hidet_obs.Metrics.value par and s0 = Hidet_obs.Metrics.value seq in
    let (), events =
      Hidet_obs.Trace.with_collector (fun () ->
          Launch.run_compiled ?workers compiled
            [ (a, Array.make 128 1.); (c, Array.make 128 0.) ])
    in
    let attr =
      List.find_map
        (function
          | Hidet_obs.Trace.Span { name = "sim.exec"; attrs; _ } ->
            List.assoc_opt "parallel" attrs
          | _ -> None)
        events
    in
    ( Hidet_obs.Metrics.value par - p0,
      Hidet_obs.Metrics.value seq - s0,
      attr )
  in
  let split parallel =
    if parallel then (k.grid_dim, 0, Some "true") else (0, k.grid_dim, Some "false")
  in
  let show (p, s, a) = Printf.sprintf "%d/%d %s" p s (Option.value a ~default:"-") in
  Alcotest.(check string) "default"
    (show (split (Hidet_parallel.Parallel.default_workers () > 1)))
    (show (launch ()));
  Alcotest.(check string) "four workers" (show (split true)) (show (launch ~workers:4 ()));
  Alcotest.(check string) "one worker" (show (split false)) (show (launch ~workers:1 ()))

let test_compile_once_run_many () =
  let k, a, c = vadd_kernel () in
  let compiled = CE.compile k in
  Alcotest.(check bool) "grid provably disjoint" true compiled.Launch.parallel_ok;
  let cv1 = Array.make 128 0. and cv2 = Array.make 128 0. in
  Launch.run_compiled compiled [ (a, Array.make 128 1.); (c, cv1) ];
  Launch.run_compiled compiled [ (a, Array.make 128 2.); (c, cv2) ];
  Alcotest.(check (float 0.)) "first launch" 2. cv1.(5);
  Alcotest.(check (float 0.)) "second launch reuses program" 3. cv2.(5)

(* --- storage lifetimes ------------------------------------------------------ *)

(* Known answers for the launch's memory model. Three blocks of two warps
   each add 1 twice to a register, a warp and a shared buffer, then store
   all three to global memory at the thread's global id. Registers are
   fresh per thread, warp buffers per warp of a block, shared buffers per
   block. Without a barrier each thread runs to completion in tid order,
   so thread [t] sees 2, 2 * (t mod 32 + 1) and 2 * (t + 1); with one
   before the stores it sees 2, 2 * 32 and 2 * 64. The barrier is either
   block-uniform (phased) or under a condition on a let-bound
   [threadIdx / 64] that every thread passes (on the reference). Storage that leaks
   from one thread, warp or block into the next shows as a larger
   value. *)
let lifetime_grid = 3
let lifetime_block = 64

let lifetime_kernel ~(sync : [ `None | `Phased | `Reference ]) =
  let n = lifetime_grid * lifetime_block in
  let r = Buffer.create ~scope:Buffer.Register "R" [ 1 ]
  and w = Buffer.create ~scope:Buffer.Warp "W" [ 1 ]
  and s = Buffer.create ~scope:Buffer.Shared "S" [ 1 ] in
  let outs = List.map (fun name -> Buffer.create name [ n ]) [ "OR"; "OW"; "OS" ] in
  let gid =
    Expr.add (Expr.mul Expr.Block_idx (Expr.int lifetime_block)) Expr.Thread_idx
  in
  let bump b =
    Stmt.store b [ Expr.int 0 ] (Expr.add (Expr.load b [ Expr.int 0 ]) (Expr.float 1.))
  in
  let i = Var.fresh "i" in
  let body =
    Stmt.seq
      ([ Stmt.for_ i (Expr.int 2) (Stmt.seq [ bump r; bump w; bump s ]) ]
      @ (match sync with
        | `None -> []
        | `Phased -> [ Stmt.sync ]
        | `Reference ->
          let x = Var.fresh "x" in
          [
            Stmt.let_ x
              (Expr.div Expr.Thread_idx (Expr.int lifetime_block))
              (Stmt.if_ (Expr.eq (Expr.var x) (Expr.int 0)) Stmt.sync);
          ])
      @ List.map2
          (fun o b -> Stmt.store o [ gid ] (Expr.load b [ Expr.int 0 ]))
          outs [ r; w; s ])
  in
  let k =
    Kernel.create ~name:"lifetimes" ~params:outs ~grid_dim:lifetime_grid
      ~block_dim:lifetime_block ~regs:[ r ] ~warp_bufs:[ w ] ~shared:[ s ] body
  in
  (k, outs)

let lifetime_expected ~sync =
  let n = lifetime_grid * lifetime_block in
  let at f = Array.init n (fun g -> float_of_int (f (g mod lifetime_block))) in
  if sync = `None then
    [ at (fun _ -> 2); at (fun t -> 2 * ((t mod 32) + 1)); at (fun t -> 2 * (t + 1)) ]
  else [ at (fun _ -> 2); at (fun _ -> 2 * 32); at (fun _ -> 2 * 64) ]

let test_storage_lifetimes ~sync () =
  let k, outs = lifetime_kernel ~sync in
  let expected = lifetime_expected ~sync in
  let check name runner =
    let bindings = List.map (fun o -> (o, Array.make (Buffer.num_elems o) 0.)) outs in
    runner k bindings;
    List.iter2
      (fun (o, got) want ->
        Alcotest.(check (array (float 0.)))
          (Printf.sprintf "%s: %s" name o.Buffer.name)
          want got)
      bindings expected
  in
  let c = CE.compile k in
  Alcotest.(check bool) "blocks may run on domains" true c.Launch.parallel_ok;
  Alcotest.(check bool) "barriers run as intended" true
    (c.Launch.barriers
    = match sync with
      | `None -> Launch.No_barrier
      | `Phased -> Phased
      | `Reference -> Reference);
  check "interp" Interp.run;
  check "closure, 1 worker" (Launch.run ~workers:1 CE.compile);
  check "closure, 4 workers" (Launch.run ~workers:4 CE.compile);
  if Lazy.force native_ok then begin
    check "native, 1 worker" (Launch.run ~workers:1 EO.compile);
    check "native, 4 workers" (Launch.run ~workers:4 EO.compile)
  end

(* --- pins of the kernels with a barrier that is not phased ------------------ *)

(* The exception, the statements and the bound arrays of each kernel with a
   barrier that [Launch.phased] refuses, pinned on both backends. *)
let barrier_pins =
  let lifetimes () =
    let k, outs = lifetime_kernel ~sync:`Reference in
    (k, fun () -> List.map (fun o -> (o, Array.make (Buffer.num_elems o) 0.)) outs)
  in
  let runs workers =
    ("closure", Launch.run ~workers CE.compile)
    :: (if Lazy.force native_ok then [ ("native", Launch.run ~workers EO.compile) ] else [])
  in
  List.map
    (fun (name, workers, mk, pinned) ->
      Alcotest.test_case name `Quick (fun () ->
          List.iter
            (fun (backend, run) ->
              Alcotest.(check string) backend pinned (Phase_cases.outcome run (mk ())))
            (runs workers)))
    [
      ( "rt_diverge",
        1,
        runtime_divergence_kernel,
        {|Hidet_gpu.Interp.Barrier_divergence("kernel rt_diverge, block 0: some threads exited while others wait at a barrier") | 0 | 04ec8ee6d0a1a5bd03232def786e0504|}
      );
      ( "tid_guarded_sync",
        1,
        Phase_cases.tid_guarded_sync,
        "- | 256 | 580dc853e3de7f8d6c70e32f47e0f2cd" );
      ( "rebound_nested",
        1,
        Phase_cases.rebound_nested,
        {|Hidet_gpu.Interp.Barrier_divergence("kernel rebound_nested, block 0: some threads exited while others wait at a barrier") | 0 | c0f1e0304c0be09c8c10eea3c8d42ffd|}
      );
      ( "rebound_sibling",
        1,
        Phase_cases.rebound_sibling,
        "- | 120 | 8a357589a7ce9c832cde6f5cbd2635f5" );
      ("storage lifetimes, 1 worker", 1, lifetimes, "- | 2496 | b87b35083ff27863c7789b0fbc493163");
      ("storage lifetimes, 4 workers", 4, lifetimes, "- | 2496 | b87b35083ff27863c7789b0fbc493163");
    ]

let () =
  Alcotest.run "compile_exec"
    [
      ( "parity",
        [
          QCheck_alcotest.to_alcotest prop_compiled_eq_legacy;
          QCheck_alcotest.to_alcotest prop_parallel_eq_sequential;
          QCheck_alcotest.to_alcotest prop_gate_respects_collisions;
        ] );
      ( "error parity",
        [
          both_raise_same "runtime barrier divergence" runtime_divergence_kernel;
          both_raise_same "out-of-bounds store" oob_store_kernel;
          both_raise_same "negative index load" negative_index_kernel;
          both_raise_same "missing binding" missing_binding_kernel;
        ] );
      ( "result parity",
        [
          (let k, b, o = mma_kernel () in
           check_same_outputs "mma tile" k b o);
          (let k, b, o = select_guard_kernel () in
           check_same_outputs "select guards OOB" k b o);
        ] );
      ( "closure forms",
        [
          Alcotest.test_case "template register FMA" `Quick test_template_fma;
          (let k, b, o = fma_kernel ~af_rows:2 () in
           check_same_outputs "register FMA" k b o);
          both_raise_same "register FMA, operand out of bounds"
            (fun () ->
              let k, b, _ = fma_kernel ~af_rows:1 () in
              (k, b));
          (let k, b, o = slot_access_kernel () in
           check_same_outputs "slot and constant indices" k b o);
          (let k, b, o = int_binop_kernel () in
           check_same_outputs "int binop operand forms" k b o);
          nest_case "FMA nest" (fma_kernel ~af_rows:2) ~fma:1 ~nests:4;
          nest_case "FMA nest with a slot index falls back"
            (fma_fallback_kernel ~mixed:false) ~fma:0 ~nests:3;
          nest_case "FMA nest over two buffer sets falls back"
            (fma_fallback_kernel ~mixed:true) ~fma:0 ~nests:3;
          Alcotest.test_case "FMA nest out of bounds falls back" `Quick
            (fun () ->
              let k, _, _ = fma_kernel ~af_rows:1 () in
              Alcotest.(check int) "FMA nests" 0 (snd (nests_of k)));
          nest_case "copy nest with slot-invariant indices" copy_nest_kernel ~fma:0
            ~nests:2;
          nest_case "constant fill nests" fill_nest_kernel ~fma:0 ~nests:2;
          nest_case "a (j + tid) % 4 index stays general" rotated_nest_kernel ~fma:0
            ~nests:0;
          Alcotest.test_case "nest out of bounds on its third element" `Quick
            test_oob_nest;
          Alcotest.test_case "every tiny-model matmul takes its nests" `Quick
            test_tiny_matmul_nests;
          lane_case "guarded epilogue, part of the tile stored" ~lanes:1 guarded_epilogue;
          lane_case "predicated load out of bounds on its third element" ~lanes:1
            predicated_oob;
          lane_case "untaken lanes out of bounds" ~lanes:2 untaken_oob;
          lane_case "stored and loaded parameters bound to one array" ~lanes:1
            aliased_params;
          lane_case "window sum over NaNs and signed zeros" ~lanes:1 nan_window;
          lane_case "a division by a loop variable stays general" ~lanes:0 lane_div_index;
          Alcotest.test_case "tiny-model lane nests" `Quick test_tiny_lane_nests;
          form_case "int/float select typed by the branch taken" mixed_select_kernel;
          form_case "division by threadIdx in a branch not taken"
            div_by_tid_in_branch;
          form_case "constant divisors in a dead branch" const_div_in_dead_branch;
          form_case "one expression in sibling loops" sibling_loops;
          form_case "let rebound in sibling scopes" rebound_let;
          form_case "lane chain" lane_chain;
        ]
        @ List.map template_case template_configs
        @ List.map
            (fun (name, access) ->
              both_raise_same ("out of bounds: " ^ name) (oob_access_kernel access))
            oob_cases
        @ List.map
            (fun (name, mk) -> both_raise_same name mk)
            div_by_zero_cases );
      ( "parallel gate",
        [
          Alcotest.test_case "block-indexed accepted" `Quick
            test_gate_accepts_block_indexed;
          Alcotest.test_case "let-tainted accepted" `Quick
            test_gate_accepts_let_tainted;
          Alcotest.test_case "thread-only index rejected" `Quick
            test_gate_rejects_thread_only_index;
          Alcotest.test_case "read+write buffer rejected" `Quick
            test_gate_rejects_read_write_buffer;
          Alcotest.test_case "for-bound var not tainted" `Quick
            test_gate_rejects_for_bound_taint;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
          Alcotest.test_case "parallel counters say what ran" `Quick
            test_parallel_counters;
          Alcotest.test_case "compile once, run many" `Quick
            test_compile_once_run_many;
          Alcotest.test_case "template fires nests and hoisting" `Quick
            test_template_counters;
        ] );
      ( "storage lifetimes",
        [
          Alcotest.test_case "without a barrier" `Quick
            (test_storage_lifetimes ~sync:`None);
          Alcotest.test_case "with a barrier" `Quick
            (test_storage_lifetimes ~sync:`Phased);
          Alcotest.test_case "with a barrier on the reference" `Quick
            (test_storage_lifetimes ~sync:`Reference);
        ] );
      ("barrier pins", barrier_pins);
      ( "phased barriers",
        [
          Alcotest.test_case "zoo plan kernels with a barrier are phased" `Quick
            Phase_cases.test_zoo_coverage;
          Alcotest.test_case "every engine's tiny-model kernels are phased"
            `Quick (fun () ->
              Phase_cases.test_coverage (Phase_cases.tiny_kernels ()) ());
          Alcotest.test_case "tiny-model kernels run phased" `Quick
            (Phase_cases.test_tiny_phased CE.compile);
          Alcotest.test_case "rt_diverge runs on the reference" `Quick
            (Phase_cases.test_divergence_on_reference CE.compile
               (runtime_divergence_kernel ()));
          Alcotest.test_case "a convergent threadIdx-guarded barrier runs on the reference"
            `Quick (Phase_cases.test_fallback_counts CE.compile);
        ]
        @ List.map
            (fun case ->
              Phase_cases.order_case case (Launch.run ~workers:1 CE.compile))
            Phase_cases.cases );
    ]
