open Hidet_ir

let ceil_div a b = (a + b - 1) / b
let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Shared-memory tree combine; leaves the row statistic in smem[0]. *)
let tree smem block combine =
  let rec levels s acc =
    if s = 0 then List.rev acc
    else
      levels (s / 2)
        (Stmt.seq
           [
             Stmt.if_
               (Expr.lt Expr.Thread_idx (Expr.int s))
               (Stmt.store smem [ Expr.Thread_idx ]
                  (combine
                     (Expr.load smem [ Expr.Thread_idx ])
                     (Expr.load smem [ Expr.add Expr.Thread_idx (Expr.int s) ])));
             Stmt.sync;
           ]
        :: acc)
  in
  Stmt.seq (levels (block / 2) [])

(* Strided pass over the row: body receives the column expression, guarded
   in bounds. *)
let strided_pass ~block ~cols body =
  Stmt.loop "t" (ceil_div cols block) (fun t ->
      let col = Expr.add (Expr.mul t (Expr.int block)) Expr.Thread_idx in
      Stmt.if_ (Expr.lt col (Expr.int cols)) (body col))

(* Accumulate a row statistic into a register then reduce through shared
   memory; afterwards smem[0] holds the result for all threads. *)
let row_statistic ~block ~cols ~smem ~acc ~init ~combine value_of_col =
  Stmt.seq
    [
      Stmt.store acc [ Expr.int 0 ] (Expr.float init);
      strided_pass ~block ~cols (fun col ->
          Stmt.store acc [ Expr.int 0 ]
            (combine (Expr.load acc [ Expr.int 0 ]) (value_of_col col)));
      Stmt.store smem [ Expr.Thread_idx ] (Expr.load acc [ Expr.int 0 ]);
      Stmt.sync;
      tree smem block combine;
    ]

let softmax ?(block_size = 128) ~rows ~cols () =
  if not (is_pow2 block_size) then invalid_arg "Row_templates.softmax: block size";
  let block = block_size in
  let x = Buffer.create "x" [ rows; cols ] in
  let out = Buffer.create "out" [ rows; cols ] in
  let smem = Buffer.create ~scope:Buffer.Shared "red" [ block ] in
  let acc = Buffer.create ~scope:Buffer.Register "acc" [ 1 ] in
  let rmax = Buffer.create ~scope:Buffer.Register "rmax" [ 1 ] in
  let rsum = Buffer.create ~scope:Buffer.Register "rsum" [ 1 ] in
  let row = Expr.Block_idx in
  let xe col = Expr.load x [ row; col ] in
  let body =
    Stmt.seq
      [
        Stmt.comment "pass 1: row maximum";
        row_statistic ~block ~cols ~smem ~acc ~init:neg_infinity
          ~combine:Expr.max_ xe;
        Stmt.store rmax [ Expr.int 0 ] (Expr.load smem [ Expr.int 0 ]);
        Stmt.sync;
        Stmt.comment "pass 2: sum of exp(x - max)";
        row_statistic ~block ~cols ~smem ~acc ~init:0. ~combine:Expr.add
          (fun col ->
            Expr.unop Expr.Exp (Expr.sub (xe col) (Expr.load rmax [ Expr.int 0 ])));
        Stmt.store rsum [ Expr.int 0 ] (Expr.load smem [ Expr.int 0 ]);
        Stmt.comment "pass 3: normalize";
        strided_pass ~block ~cols (fun col ->
            Stmt.store out [ row; col ]
              (Expr.div
                 (Expr.unop Expr.Exp
                    (Expr.sub (xe col) (Expr.load rmax [ Expr.int 0 ])))
                 (Expr.load rsum [ Expr.int 0 ])));
      ]
  in
  let name = Printf.sprintf "softmax_%dx%d_b%d" rows cols block in
  let kernel =
    Kernel.create ~shared:[ smem ] ~regs:[ acc; rmax; rsum ] ~name
      ~params:[ x; out ] ~grid_dim:rows ~block_dim:block (Simplify.stmt body)
  in
  { Compiled.name; kernels = [ kernel ]; ins = [ x ]; out; temps = [] }

let layernorm ?(block_size = 128) ?(eps = 1e-5) ~rows ~cols () =
  if not (is_pow2 block_size) then invalid_arg "Row_templates.layernorm: block size";
  let block = block_size in
  let x = Buffer.create "x" [ rows; cols ] in
  let gamma = Buffer.create "gamma" [ cols ] in
  let beta = Buffer.create "beta" [ cols ] in
  let out = Buffer.create "out" [ rows; cols ] in
  let smem = Buffer.create ~scope:Buffer.Shared "red" [ block ] in
  let acc = Buffer.create ~scope:Buffer.Register "acc" [ 1 ] in
  let mean = Buffer.create ~scope:Buffer.Register "mean" [ 1 ] in
  let var = Buffer.create ~scope:Buffer.Register "variance" [ 1 ] in
  let row = Expr.Block_idx in
  let xe col = Expr.load x [ row; col ] in
  let colsf = float_of_int cols in
  let body =
    Stmt.seq
      [
        Stmt.comment "pass 1: mean";
        row_statistic ~block ~cols ~smem ~acc ~init:0. ~combine:Expr.add xe;
        Stmt.store mean [ Expr.int 0 ]
          (Expr.div (Expr.load smem [ Expr.int 0 ]) (Expr.float colsf));
        Stmt.sync;
        Stmt.comment "pass 2: variance";
        row_statistic ~block ~cols ~smem ~acc ~init:0. ~combine:Expr.add
          (fun col ->
            let d = Expr.sub (xe col) (Expr.load mean [ Expr.int 0 ]) in
            Expr.mul d d);
        Stmt.store var [ Expr.int 0 ]
          (Expr.div (Expr.load smem [ Expr.int 0 ]) (Expr.float colsf));
        Stmt.comment "pass 3: normalize, scale, shift";
        strided_pass ~block ~cols (fun col ->
            Stmt.store out [ row; col ]
              (Expr.add
                 (Expr.mul (Expr.load gamma [ col ])
                    (Expr.div
                       (Expr.sub (xe col) (Expr.load mean [ Expr.int 0 ]))
                       (Expr.unop Expr.Sqrt
                          (Expr.add (Expr.load var [ Expr.int 0 ]) (Expr.float eps)))))
                 (Expr.load beta [ col ])));
      ]
  in
  let name = Printf.sprintf "layernorm_%dx%d_b%d" rows cols block in
  let kernel =
    Kernel.create ~shared:[ smem ] ~regs:[ acc; mean; var ] ~name
      ~params:[ x; gamma; beta; out ]
      ~grid_dim:rows ~block_dim:block (Simplify.stmt body)
  in
  {
    Compiled.name;
    kernels = [ kernel ];
    ins = [ x; gamma; beta ];
    out;
    temps = [];
  }
