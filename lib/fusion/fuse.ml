open Hidet_ir
module Def = Hidet_compute.Def
module Compiled = Hidet_sched.Compiled

let splice_at i replacement l =
  List.concat (List.mapi (fun j x -> if j = i then replacement else [ x ]) l)

let replace_param target replacement (k : Kernel.t) =
  {
    k with
    Kernel.params =
      List.concat_map
        (fun p -> if Buffer.equal p target then replacement else [ p ])
        k.Kernel.params;
  }

let fuse_prologue (anchor : Compiled.t) ~input_index (def : Def.t) =
  if not (Def.is_injective def) then
    invalid_arg
      (Printf.sprintf "fuse_prologue: %s is not injective" def.Def.name);
  let target =
    try List.nth anchor.Compiled.ins input_index
    with _ -> invalid_arg "fuse_prologue: input index out of range"
  in
  if def.Def.out_shape <> target.Buffer.dims then
    invalid_arg
      (Printf.sprintf
         "fuse_prologue: %s produces [%s] but anchor input %s is [%s]"
         def.Def.name
         (String.concat "," (List.map string_of_int def.Def.out_shape))
         target.Buffer.name
         (String.concat "," (List.map string_of_int target.Buffer.dims)));
  let p_ins =
    List.mapi
      (fun i shape -> Buffer.create (Printf.sprintf "p%d_%s" i def.Def.name) shape)
      def.Def.in_shapes
  in
  let rewrite_load buf idx =
    if Buffer.equal buf target then
      Some
        (Def.scalar_to_expr
           ~inputs:(fun k idx' -> Expr.load (List.nth p_ins k) idx')
           ~axes:idx ~raxes:[] def.Def.body)
    else None
  in
  let rewrite_kernel k =
    let k = Kernel.map_body (Stmt.map_exprs (Expr.map_loads rewrite_load)) k in
    replace_param target p_ins k
  in
  {
    anchor with
    Compiled.name = Printf.sprintf "%s+%s" def.Def.name anchor.Compiled.name;
    kernels = List.map rewrite_kernel anchor.Compiled.kernels;
    ins = splice_at input_index p_ins anchor.Compiled.ins;
  }

(* Fault injection for the differential fuzzer: when set, epilogue fusion
   mirrors the innermost store index, a realistic index-remap bug that stays
   in bounds (so only the differential check — not Verify or the interpreter
   bounds trap — can catch it). *)
let inject_index_bug = ref false

let maybe_mangle_out_idx (out_shape : int list) (idx : Expr.t list) =
  if not !inject_index_bug then idx
  else
    match (List.rev idx, List.rev out_shape) with
    | last :: rest, extent :: _ when extent > 1 ->
      List.rev (Expr.sub (Expr.int (extent - 1)) last :: rest)
    | _ -> idx

let fuse_epilogue (anchor : Compiled.t) (def : Def.t) =
  if not (Def.is_injective def) then
    invalid_arg (Printf.sprintf "fuse_epilogue: %s is not injective" def.Def.name);
  let bijection =
    match def.Def.bijection with
    | Some b -> b
    | None ->
      invalid_arg
        (Printf.sprintf "fuse_epilogue: %s has no index bijection" def.Def.name)
  in
  let target = anchor.Compiled.out in
  (match def.Def.in_shapes with
  | first :: _ when first = target.Buffer.dims -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "fuse_epilogue: %s input 0 does not match anchor output %s"
         def.Def.name target.Buffer.name));
  let new_out = Buffer.create ("out_" ^ def.Def.name) def.Def.out_shape in
  let extra_ins =
    List.filteri (fun i _ -> i > 0) def.Def.in_shapes
    |> List.mapi (fun i shape ->
           Buffer.create (Printf.sprintf "e%d_%s" (i + 1) def.Def.name) shape)
  in
  let rewrite_store idx value =
    let out_idx =
      maybe_mangle_out_idx def.Def.out_shape
        (List.map Simplify.expr (bijection idx))
    in
    let new_value =
      Def.scalar_to_expr
        ~inputs:(fun k idx' ->
          if k = 0 then value else Expr.load (List.nth extra_ins (k - 1)) idx')
        ~axes:out_idx ~raxes:[] def.Def.body
    in
    Stmt.store new_out out_idx new_value
  in
  (* Only the paths to the anchor's stores are copied. A kernel body's
     sequences are flat already, so an unchanged one is kept as it is. *)
  let rec rewrite_stmt (s : Stmt.t) =
    match s with
    | Stmt.Seq ss ->
      let ss' = Expr.map_list rewrite_stmt ss in
      if ss' == ss then s else Stmt.seq ss'
    | For f ->
      let body = rewrite_stmt f.body in
      if body == f.body then s else Stmt.For { f with body }
    | If i ->
      let then_ = rewrite_stmt i.then_ in
      let else_ =
        match i.else_ with
        | Some e as o ->
          let e' = rewrite_stmt e in
          if e' == e then o else Some e'
        | None -> None
      in
      if then_ == i.then_ && else_ == i.else_ then s
      else Stmt.If { i with then_; else_ }
    | Let l ->
      let body = rewrite_stmt l.body in
      if body == l.body then s else Stmt.Let { l with body }
    | Store { buf; indices; value } when Buffer.equal buf target ->
      rewrite_store indices value
    | Store _ | Mma _ | Sync_threads | Comment _ -> s
  in
  let rewrite_kernel k =
    let k = Kernel.map_body rewrite_stmt k in
    replace_param target (new_out :: extra_ins) k
  in
  {
    anchor with
    Compiled.name = Printf.sprintf "%s+%s" anchor.Compiled.name def.Def.name;
    kernels = List.map rewrite_kernel anchor.Compiled.kernels;
    ins = anchor.Compiled.ins @ extra_ins;
    out = new_out;
  }
