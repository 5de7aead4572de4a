open Hidet_ir
module Def = Hidet_compute.Def

let ceil_div a b = (a + b - 1) / b

(* Decode the flat worker id into multi-dimensional output indices. *)
let decode_axes gid shape =
  let n = List.length shape in
  let strides =
    List.mapi
      (fun i _ ->
        List.fold_left ( * ) 1 (List.filteri (fun j _ -> j > i) shape))
      shape
  in
  List.mapi
    (fun i d ->
      let s = List.nth strides i in
      if i = 0 && n > 0 then Expr.div gid (Expr.int s)
      else Expr.modulo (Expr.div gid (Expr.int s)) (Expr.int d))
    shape

let schedule ?(block_dim = 256) (d : Def.t) =
  let ins =
    List.mapi (fun i shape -> Buffer.create (Printf.sprintf "in%d" i) shape) d.Def.in_shapes
  in
  let out = Buffer.create "out" d.Def.out_shape in
  let numel = Def.num_out_elems d in
  let grid = max 1 (ceil_div numel block_dim) in
  let v_gid = Var.fresh "gid" in
  let gid = Expr.var v_gid in
  let axes = decode_axes gid d.Def.out_shape in
  let load_input k idx = Expr.load (List.nth ins k) idx in
  let body_stmt =
    match d.Def.reduce with
    | None ->
      Stmt.store out axes
        (Def.scalar_to_expr ~inputs:load_input ~axes ~raxes:[] d.Def.body)
    | Some (extents, kind) ->
      let acc = Buffer.create ~scope:Buffer.Register "acc" [ 1 ] in
      let init_v =
        match kind with Def.Sum -> 0. | Def.Max_reduce -> neg_infinity
      in
      let combine a b =
        match kind with Def.Sum -> Expr.add a b | Def.Max_reduce -> Expr.max_ a b
      in
      (* One loop per reduction axis, outermost first. *)
      let rec loops raxes = function
        | [] ->
          Stmt.store acc [ Expr.int 0 ]
            (combine
               (Expr.load acc [ Expr.int 0 ])
               (Def.scalar_to_expr ~inputs:load_input ~axes
                  ~raxes:(List.rev raxes) d.Def.body))
        | ext :: rest -> Stmt.loop "r" ext (fun r -> loops (r :: raxes) rest)
      in
      let loops = loops [] extents in
      Stmt.seq
        [
          Stmt.store acc [ Expr.int 0 ] (Expr.float init_v);
          loops;
          Stmt.store out axes (Expr.load acc [ Expr.int 0 ]);
        ]
  in
  let regs =
    Stmt.fold
      (fun acc s ->
        match s with
        | Stmt.Store { buf; _ } when buf.Buffer.scope = Buffer.Register ->
          if List.exists (Buffer.equal buf) acc then acc else buf :: acc
        | _ -> acc)
      [] body_stmt
  in
  let body =
    Stmt.let_ v_gid
      (Expr.add (Expr.mul Expr.Block_idx (Expr.int block_dim)) Expr.Thread_idx)
      (Stmt.if_ (Expr.lt gid (Expr.int numel)) body_stmt)
  in
  let name = Printf.sprintf "rule_%s" d.Def.name in
  let kernel =
    Kernel.create ~regs ~name
      ~params:(ins @ [ out ])
      ~grid_dim:grid ~block_dim (Simplify.stmt body)
  in
  { Compiled.name; kernels = [ kernel ]; ins; out; temps = [] }
