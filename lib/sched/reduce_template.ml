open Hidet_ir
module Def = Hidet_compute.Def

type config = { block_size : int }

let default_config = { block_size = 128 }
let space = [| { block_size = 32 }; { block_size = 64 }; { block_size = 128 }; { block_size = 256 } |]

let is_pow2 n = n > 0 && n land (n - 1) = 0
let ceil_div a b = (a + b - 1) / b

let schedule ?(config = default_config) (d : Def.t) =
  let extents, kind =
    match d.Def.reduce with
    | Some r -> r
    | None -> invalid_arg "Reduce_template.schedule: definition has no reduction"
  in
  if not (is_pow2 config.block_size) || config.block_size > 1024 then
    invalid_arg "Reduce_template.schedule: block size must be a power of two <= 1024";
  let block = config.block_size in
  let ins =
    List.mapi (fun i shape -> Buffer.create (Printf.sprintf "in%d" i) shape) d.Def.in_shapes
  in
  let out = Buffer.create "out" d.Def.out_shape in
  let numel = Def.num_out_elems d in
  let rdomain = List.fold_left ( * ) 1 extents in
  let init_v = match kind with Def.Sum -> 0. | Def.Max_reduce -> neg_infinity in
  let combine a b =
    match kind with Def.Sum -> Expr.add a b | Def.Max_reduce -> Expr.max_ a b
  in
  (* Output element of this block. *)
  let axes = Rule_based.decode_axes Expr.Block_idx d.Def.out_shape in
  (* Flat reduction index r decodes into the reduction axes. *)
  let decode_raxes r =
    List.mapi
      (fun i d_i ->
        let stride =
          List.fold_left ( * ) 1 (List.filteri (fun j _ -> j > i) extents)
        in
        if i = 0 then Expr.div r (Expr.int stride)
        else Expr.modulo (Expr.div r (Expr.int stride)) (Expr.int d_i))
      extents
  in
  let acc = Buffer.create ~scope:Buffer.Register "acc" [ 1 ] in
  let smem = Buffer.create ~scope:Buffer.Shared "red" [ block ] in
  let load_input k idx = Expr.load (List.nth ins k) idx in
  let strided_accumulate =
    Stmt.loop "t" (ceil_div rdomain block) (fun t ->
        let r = Expr.add (Expr.mul t (Expr.int block)) Expr.Thread_idx in
        Stmt.if_
          (Expr.lt r (Expr.int rdomain))
          (Stmt.store acc [ Expr.int 0 ]
             (combine
                (Expr.load acc [ Expr.int 0 ])
                (Def.scalar_to_expr ~inputs:load_input ~axes
                   ~raxes:(decode_raxes r) d.Def.body))))
  in
  let rec tree_levels s acc_stmts =
    if s = 0 then List.rev acc_stmts
    else
      tree_levels (s / 2)
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
        :: acc_stmts)
  in
  let body =
    Stmt.seq
      ([
         Stmt.store acc [ Expr.int 0 ] (Expr.float init_v);
         strided_accumulate;
         Stmt.store smem [ Expr.Thread_idx ] (Expr.load acc [ Expr.int 0 ]);
         Stmt.sync;
       ]
      @ tree_levels (block / 2) []
      @ [
          Stmt.if_
            (Expr.eq Expr.Thread_idx (Expr.int 0))
            (Stmt.store out axes (Expr.load smem [ Expr.int 0 ]));
        ])
  in
  let name = Printf.sprintf "reduce_%s_b%d" d.Def.name block in
  let kernel =
    Kernel.create ~shared:[ smem ] ~regs:[ acc ] ~name
      ~params:(ins @ [ out ])
      ~grid_dim:numel ~block_dim:block (Simplify.stmt body)
  in
  { Compiled.name; kernels = [ kernel ]; ins; out; temps = [] }
